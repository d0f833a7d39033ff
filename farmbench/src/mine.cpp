// Workload `mine`: offline batch mining.
//
// A four-tenant trace (LLNL/INS/RES/HP) is streamed to disk in several
// generator rounds, merged into one v3 file and replayed from the
// TraceReader mapping. One producer feeds 1024-record observe_batch() calls
// into "sharded" (4 shards), then flush()es; each rep ends by save()ing the
// model and load()ing it into a fresh miner. Nearly all work is the core
// kernel, applied serially; prefetch, cache, sim and the RCU publish path
// are bypassed.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "api/miner_factory.hpp"
#include "bench.hpp"
#include "core/sharded_farmer.hpp"
#include "spans.hpp"

namespace farmbench {

namespace {

constexpr std::size_t kRounds = 2;
constexpr std::size_t kShards = 4;
// Serial apply: with 2 lanes a batch waits for the helper lane whenever the
// host preempts it, and the batch p99 of ten runs spread over twice its
// median. The parallel path runs in the output check (kCheckLanes).
constexpr std::size_t kApplyLanes = 1;
constexpr std::size_t kCheckLanes = 2;
constexpr std::size_t kBatch = 1024;
constexpr std::size_t kSetups = 5;
constexpr std::size_t kMinReps = 4;
constexpr std::size_t kCheckPrefix = 131072;

std::unique_ptr<farmer::CorrelationMiner> make_sharded(
    const farmer::FarmerConfig& cfg,
    const std::shared_ptr<const farmer::TraceDictionary>& dict,
    std::size_t apply_lanes) {
  farmer::MinerOptions mo;
  mo.shards = kShards;
  mo.apply_threads = apply_lanes;
  return farmer::make_miner("sharded", cfg, dict, mo);
}

void ingest(farmer::CorrelationMiner& m,
            std::span<const farmer::TraceRecord> recs, Histogram* batch_ns) {
  static const spans::Name kObserveBatch("core.observe_batch");
  for (std::size_t i = 0; i < recs.size(); i += kBatch) {
    const auto chunk = recs.subspan(i, std::min(kBatch, recs.size() - i));
    const std::int64_t t0 = now_ns();
    {
      const Span s(kObserveBatch, i / kBatch);
      m.observe_batch(chunk);
    }
    if (batch_ns) batch_ns->record(static_cast<std::uint64_t>(now_ns() - t0));
  }
}

}  // namespace

void run_mine(const Options& opt, Report& rep) {
  namespace fs = std::filesystem;
  static const spans::Name kRep("bench.rep");
  static const spans::Name kFlush("core.flush");

  const IngestSetup setup =
      set_up_ingest(opt, kRounds, kSetups, [](const farmer::TraceReader& r) {
        (void)make_sharded(config_for(r.has_paths()), r.dict(), kApplyLanes);
      });
  const auto recs = setup.reader->records();
  const auto dict = setup.reader->dict();
  const std::size_t files = dict->files.size();
  const farmer::FarmerConfig cfg = config_for(setup.reader->has_paths());
  rep.fingerprint("records", static_cast<double>(recs.size()));
  rep.fingerprint("files", static_cast<double>(files));
  rep.fingerprint("tenants", "LLNL,INS,RES,HP");
  rep.fingerprint("rounds", static_cast<double>(kRounds));
  rep.fingerprint("shards", static_cast<double>(kShards));
  rep.fingerprint("apply_lanes", static_cast<double>(kApplyLanes));

  // Check: parallel apply equals a serial (apply_threads = 1) replay on a
  // prefix.
  {
    const auto prefix = recs.first(std::min(kCheckPrefix, recs.size()));
    auto par = make_sharded(cfg, dict, kCheckLanes);
    auto ser = make_sharded(cfg, dict, 1);
    ingest(*par, prefix, nullptr);
    ingest(*ser, prefix, nullptr);
    const bool same = model_digest(*par, files) == model_digest(*ser, files);
    rep.check("mine.parallel_equals_serial_prefix", same,
              std::to_string(prefix.size()) + " records, " +
                  std::to_string(kCheckLanes) + " lanes vs 1");
  }

  std::uint64_t batches = 0;
  std::vector<double> rate, batch_p50, batch_p99, flush_ms, model_bytes;
  std::vector<double> traced_ingest_s, untraced_ingest_s;
  std::vector<Recovery> recoveries;
  std::vector<std::uint64_t> pairs;  // pair evaluations per rep
  std::uint64_t digest0 = 0;
  farmer::MinerStats last;
  bool digests_equal = true, recovered_equal = true;
  repeat_for(opt.seconds, kMinReps, [&](std::size_t r) {
    const bool timed = r >= kWarmupReps;
    const bool traced = timed && opt.trace && r % 2 == 1;
    auto miner = make_sharded(cfg, dict, kApplyLanes);
    auto fresh = make_sharded(cfg, dict, kApplyLanes);
    Histogram batch_ns;
    double ingest_s = 0, flush = 0;
    spans::enable(traced);
    {
      const Span root(kRep, r);
      const std::int64_t t0 = now_ns();
      ingest(*miner, recs, traced ? nullptr : &batch_ns);
      flush = time_s([&] {
        const Span s(kFlush);
        miner->flush();
      });
      ingest_s = static_cast<double>(now_ns() - t0) / 1e9;
      recoveries.push_back(round_trip(
          *miner, *fresh,
          (fs::path(opt.work_dir) / ("ckpt" + std::to_string(r))).string(),
          recs.front().file));
    }
    spans::enable(false);
    rep.attempt(recs.size());
    if (timed && traced) traced_ingest_s.push_back(ingest_s);
    if (timed && !traced) {
      untraced_ingest_s.push_back(ingest_s);
      rate.push_back(static_cast<double>(recs.size()) / ingest_s);
      batch_p50.push_back(batch_ns.quantile(0.50));
      batch_p99.push_back(batch_ns.quantile(0.99));
      batches += batch_ns.count();
    }
    if (timed) flush_ms.push_back(flush * 1e3);
    model_bytes.push_back(static_cast<double>(miner->footprint_bytes()));
    last = miner->stats();
    pairs.push_back(last.pairs_evaluated);
    if (last.requests != recs.size()) rep.fail(recs.size() - last.requests);
    const std::uint64_t d = model_digest(*miner, files);
    if (r == 0) digest0 = d;
    digests_equal = digests_equal && d == digest0;
    if (r == 0) recovered_equal = model_digest(*fresh, files) == d;
  });

  bool same_sizes = true;
  for (std::size_t i = 0; i < recoveries.size(); ++i)
    same_sizes = same_sizes && model_bytes[i] == model_bytes[0] &&
                 pairs[i] == pairs[0] &&
                 recoveries[i].checkpoint_bytes ==
                     recoveries[0].checkpoint_bytes;
  rep.check("mine.digest_repeats", digests_equal,
            "model digest identical across reps");
  rep.check("mine.recovered_equals_saved", recovered_equal,
            "load(save(model)) digest equals the model's");
  rep.check("mine.deterministic_metrics", same_sizes,
            "model bytes, checkpoint bytes and pair evaluations identical "
            "across reps");
  rep.check("mine.all_records_ingested", last.requests == recs.size(),
            std::to_string(last.requests) + " of " +
                std::to_string(recs.size()));

  // End to end (untraced reps).
  report_setup(rep, setup);
  report_recovery(rep, recoveries);
  rep.metric("peak_rss_mb", peak_rss_mb(), "MiB", "lower");
  rep.metric("model_bytes", model_bytes.front(), "bytes", "lower");
  rep.metric("ops_per_s", median(rate), "1/s", "higher");
  rep.metric("op_p50_us", median(batch_p50) / 1e3, "us", "lower");
  rep.metric("op_p99_us", median(batch_p99) / 1e3, "us", "lower");
  rep.metric("op_samples", static_cast<double>(batches), "count", "info");
  rep.metric("ingest_rec_s", median(rate), "records/s", "higher");

  // Per layer. Counters come from the miner; times from the traced reps.
  const double n = static_cast<double>(last.requests);
  report_core_counters(rep, last);
  rep.metric("core.apply_parallel_share",
             static_cast<double>(last.apply_parallel_records) / n, "ratio",
             "info");
  {
    farmer::ShardedFarmer probe(cfg, dict, kShards, 1);
    std::vector<double> per_shard(kShards, 0.0);
    for (const farmer::TraceRecord& r : recs) per_shard[probe.shard_of(r)] += 1;
    const double mx = *std::max_element(per_shard.begin(), per_shard.end());
    rep.metric("core.shard_skew", mx / (n / static_cast<double>(kShards)),
               "ratio", "info");
  }
  rep.metric("core.flush_ms", median(flush_ms), "ms", "info");
  if (opt.trace) {
    const SpanAggregate ob = spans::aggregate("core.observe_batch");
    rep.metric("core.observe_batch_p50_us", ob.quantile_ns(0.50) / 1e3, "us",
               "info");
    rep.metric("core.observe_batch_p99_us", ob.quantile_ns(0.99) / 1e3, "us",
               "info");
    rep.metric("core.observe_batch_count", static_cast<double>(ob.count),
               "count", "info");
    rep.metric("core.ns_per_record",
               static_cast<double>(ob.total_ns) /
                   (static_cast<double>(traced_ingest_s.size()) * n),
               "ns", "info");
    rep.metric("trace_overhead",
               median(traced_ingest_s) / median(untraced_ingest_s), "ratio",
               "info");
    report_layer_shares(rep, {"bench.rep"});
  }
}

}  // namespace farmbench
