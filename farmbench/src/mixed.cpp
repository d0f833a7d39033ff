// Workload `mixed`: reads beside writes.
//
// One open-loop producer offers the four-tenant trace to "concurrent"
// (4 shards, 1 apply lane) at a fixed rate, batch by batch, each batch due
// at a fixed instant; two closed-loop reader threads call snapshot() on
// request-weighted files meanwhile. Ingest goes through the async queue,
// the copy-on-write publish and the RCU read path, which mine and serve
// bypass. Threads: producer, drain, two readers.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/miner_factory.hpp"
#include "bench.hpp"
#include "common/rng.hpp"
#include "spans.hpp"

namespace farmbench {

namespace {

constexpr double kRate = 200'000.0;  // offered records per second
constexpr std::size_t kBatch = 256;
constexpr std::size_t kRounds = 1;
constexpr std::size_t kShards = 4;
constexpr std::size_t kReaders = 2;
constexpr std::size_t kSetups = 5;
constexpr std::size_t kMinReps = 3;
constexpr std::int64_t kPollNs = 200'000;  // producer idle poll period

std::unique_ptr<farmer::CorrelationMiner> make_concurrent(
    const farmer::FarmerConfig& cfg,
    const std::shared_ptr<const farmer::TraceDictionary>& dict) {
  farmer::MinerOptions mo;
  mo.shards = kShards;
  mo.apply_threads = 1;
  mo.ingest_threads = 1;
  return farmer::make_miner("concurrent", cfg, dict, mo);
}

struct RepResult {
  Histogram query_ns;                   // both readers
  std::vector<double> visible_ms;       // per batch
  std::vector<double> enqueue_ns;       // per batch
  std::uint64_t queries = 0, empty = 0;
  double offer_s = 0;   // first due instant to last batch visible
  double late_max_ms = 0;
  std::uint64_t pending_max = 0;
  farmer::MinerStats before_flush;
};

/// One open-loop offer of `recs` with readers running; returns once every
/// record is visible to queries (or after a generous timeout).
RepResult offer(farmer::CorrelationMiner& m,
                std::span<const farmer::TraceRecord> recs,
                std::uint64_t seed) {
  static const spans::Name kEnqueue("core.enqueue");
  static const spans::Name kStats("core.stats");
  static const spans::Name kReader("bench.reader");
  static const spans::Name kQuery("query.snapshot");
  static const spans::Name kWait("load.wait");
  RepResult out;
  std::atomic<bool> stop{false};
  std::vector<Histogram> lat(kReaders);
  std::vector<std::uint64_t> empties(kReaders, 0);
  std::vector<std::thread> readers;
  // Stops and joins the readers on every path out, exceptions included.
  struct Joiner {
    std::atomic<bool>& stop;
    std::vector<std::thread>& threads;
    ~Joiner() {
      stop.store(true);
      for (std::thread& t : threads)
        if (t.joinable()) t.join();
    }
  } joiner{stop, readers};
  for (std::size_t t = 0; t < kReaders; ++t)
    readers.emplace_back([&, t] {
      farmer::Rng rng(seed * 1000 + t);
      Histogram& mine = lat[t];
      const Span root(kReader, t);
      while (!stop.load(std::memory_order_relaxed)) {
        const farmer::FileId f = recs[rng.next_below(recs.size())].file;
        const std::int64_t t0 = now_ns();
        bool empty = false;
        {
          const Span s(kQuery);
          empty = m.snapshot(f).empty();
        }
        mine.record(static_cast<std::uint64_t>(now_ns() - t0));
        empties[t] += empty;
      }
    });

  struct Due {
    std::uint64_t count;
    std::int64_t at;
  };
  std::deque<Due> waiting;
  const auto poll = [&] {
    farmer::MinerStats s;
    {
      const Span sp(kStats);
      s = m.stats();
    }
    const std::int64_t now = now_ns();
    out.pending_max = std::max(out.pending_max, s.pending);
    while (!waiting.empty() && waiting.front().count <= s.requests) {
      out.visible_ms.push_back(
          static_cast<double>(now - waiting.front().at) / 1e6);
      waiting.pop_front();
    }
  };

  const std::int64_t start = now_ns() + 1'000'000;
  for (std::size_t i = 0; i < recs.size(); i += kBatch) {
    const std::size_t end = std::min(recs.size(), i + kBatch);
    const std::int64_t due =
        start + static_cast<std::int64_t>(static_cast<double>(end) / kRate * 1e9);
    {
      const Span s(kWait);
      for (std::int64_t now = now_ns(); now < due; now = now_ns()) {
        poll();
        const std::int64_t left = due - now_ns();
        if (left > 0)
          std::this_thread::sleep_for(
              std::chrono::nanoseconds(std::min(left, kPollNs)));
      }
    }
    const std::int64_t t0 = now_ns();
    {
      const Span s(kEnqueue, i / kBatch);
      m.observe_batch(recs.subspan(i, end - i));
    }
    const std::int64_t t1 = now_ns();
    out.enqueue_ns.push_back(static_cast<double>(t1 - t0));
    out.late_max_ms =
        std::max(out.late_max_ms, static_cast<double>(t0 - due) / 1e6);
    waiting.push_back(Due{end, due});
  }
  const std::int64_t give_up = now_ns() + 30'000'000'000;
  {
    const Span s(kWait);
    while (!waiting.empty() && now_ns() < give_up) {
      poll();
      std::this_thread::sleep_for(std::chrono::nanoseconds(kPollNs / 4));
    }
  }
  out.offer_s = static_cast<double>(now_ns() - start) / 1e9;
  stop.store(true);
  for (std::thread& t : readers) t.join();
  if (!waiting.empty())
    throw std::runtime_error(std::to_string(waiting.size()) +
                             " batches never became visible");
  out.before_flush = m.stats();
  for (std::size_t t = 0; t < kReaders; ++t) {
    out.queries += lat[t].count();
    out.empty += empties[t];
    out.query_ns.merge(lat[t]);
  }
  return out;
}

}  // namespace

void run_mixed(const Options& opt, Report& rep) {
  namespace fs = std::filesystem;
  static const spans::Name kRep("bench.rep");
  static const spans::Name kFlush("core.flush");

  const IngestSetup setup =
      set_up_ingest(opt, kRounds, kSetups, [](const farmer::TraceReader& r) {
        (void)make_concurrent(config_for(r.has_paths()), r.dict());
      });
  const auto recs = setup.reader->records();
  const auto dict = setup.reader->dict();
  const std::size_t files = dict->files.size();
  const farmer::FarmerConfig cfg = config_for(setup.reader->has_paths());
  rep.fingerprint("records", static_cast<double>(recs.size()));
  rep.fingerprint("files", static_cast<double>(files));
  rep.fingerprint("tenants", "LLNL,INS,RES,HP");
  rep.fingerprint("offered_rec_s", kRate);
  rep.fingerprint("readers", static_cast<double>(kReaders));
  rep.fingerprint("shards", static_cast<double>(kShards));

  // Reference: "sharded" on the same records, serial apply.
  std::uint64_t reference = 0;
  {
    farmer::MinerOptions mo;
    mo.shards = kShards;
    mo.apply_threads = 1;
    auto sharded = farmer::make_miner("sharded", cfg, dict, mo);
    sharded->observe_batch(recs);
    reference = model_digest(*sharded, files);
  }

  std::vector<double> qps, q50, q99, vis50, achieved, flush_ms, enq50, enq99,
      late, pending_max, publishes, per_publish, cloned_per_publish,
      empty_share, model_bytes;
  std::vector<double> traced_q50, untraced_q50;
  std::vector<Recovery> recoveries;
  std::vector<std::uint64_t> pairs;  // pair evaluations per rep
  farmer::MinerStats core;
  bool digests_ok = true, recovered_ok = true;
  repeat_for(opt.seconds, kMinReps, [&](std::size_t r) {
    const bool timed = r >= kWarmupReps;
    const bool traced = timed && opt.trace && r % 2 == 1;
    auto miner = make_concurrent(cfg, dict);
    auto fresh = make_concurrent(cfg, dict);
    RepResult res;
    double flush = 0;
    spans::enable(traced);
    {
      const Span root(kRep, r);
      res = offer(*miner, recs, opt.seed + r);
      flush = time_s([&] {
        const Span s(kFlush);
        miner->flush();
      });
      recoveries.push_back(round_trip(
          *miner, *fresh,
          (fs::path(opt.work_dir) / ("ckpt" + std::to_string(r))).string(),
          recs.front().file));
    }
    spans::enable(false);

    rep.attempt(recs.size() + res.queries);
    core = miner->stats();
    pairs.push_back(core.pairs_evaluated);
    if (core.requests != recs.size()) rep.fail(recs.size() - core.requests);
    const std::uint64_t d = model_digest(*miner, files);
    digests_ok = digests_ok && d == reference;
    if (r == 0) recovered_ok = model_digest(*fresh, files) == d;
    // The live model's footprint counts copy-on-write clones, which depend
    // on publish timing; the recovered model is the deterministic size.
    model_bytes.push_back(static_cast<double>(fresh->footprint_bytes()));

    const double p50 = res.query_ns.quantile(0.50);
    if (timed) (traced ? traced_q50 : untraced_q50).push_back(p50);
    if (timed && !traced) {
      qps.push_back(static_cast<double>(res.queries) / res.offer_s);
      q50.push_back(p50);
      q99.push_back(res.query_ns.quantile(0.99));
      vis50.push_back(median(res.visible_ms));
      achieved.push_back(static_cast<double>(recs.size()) / res.offer_s);
      enq50.push_back(median(res.enqueue_ns));
      enq99.push_back(quantile(res.enqueue_ns, 0.99));
    }
    if (timed) flush_ms.push_back(flush * 1e3);
    late.push_back(res.late_max_ms);
    pending_max.push_back(static_cast<double>(res.pending_max));
    const double pubs = static_cast<double>(res.before_flush.publishes);
    publishes.push_back(pubs);
    per_publish.push_back(static_cast<double>(res.before_flush.requests) /
                          std::max(1.0, pubs));
    cloned_per_publish.push_back(
        static_cast<double>(res.before_flush.files_cloned) /
        std::max(1.0, pubs));
    empty_share.push_back(static_cast<double>(res.empty) /
                          static_cast<double>(std::max<std::uint64_t>(
                              1, res.queries)));
  });

  bool same_sizes = true;
  for (std::size_t i = 0; i < recoveries.size(); ++i)
    same_sizes = same_sizes && model_bytes[i] == model_bytes[0] &&
                 pairs[i] == pairs[0] &&
                 recoveries[i].checkpoint_bytes ==
                     recoveries[0].checkpoint_bytes;
  rep.check("mixed.concurrent_equals_sharded", digests_ok,
            "digest after flush equals serial sharded replay, every rep");
  rep.check("mixed.recovered_equals_saved", recovered_ok,
            "load(save(model)) digest equals the model's");
  rep.check("mixed.deterministic_metrics", same_sizes,
            "model bytes, checkpoint bytes and pair evaluations identical "
            "across reps");

  report_setup(rep, setup);
  report_recovery(rep, recoveries);
  rep.metric("peak_rss_mb", peak_rss_mb(), "MiB", "lower");
  rep.metric("model_bytes", model_bytes.front(), "bytes", "lower");
  rep.metric("ops_per_s", median(qps), "1/s", "higher");
  rep.metric("op_p50_us", median(q50) / 1e3, "us", "lower");
  rep.metric("op_p99_us", median(q99) / 1e3, "us", "lower");
  rep.metric("query_p50_ns", median(q50), "ns", "lower");
  rep.metric("query_p99_ns", median(q99), "ns", "lower");
  rep.metric("queries_per_s", median(qps), "queries/s", "higher");
  rep.metric("visible_p50_ms", median(vis50), "ms", "lower");
  rep.metric("ingest_rec_s", median(achieved), "records/s", "higher");

  rep.metric("load.late_max_ms", median(late), "ms", "info");
  rep.metric("core.enqueue_p50_ns", median(enq50), "ns", "info");
  rep.metric("core.enqueue_p99_ns", median(enq99), "ns", "info");
  rep.metric("core.publishes", median(publishes), "count", "info");
  rep.metric("core.records_per_publish", median(per_publish), "records",
             "info");
  rep.metric("core.files_cloned_per_publish", median(cloned_per_publish),
             "count", "info");
  rep.metric("core.pending_max", median(pending_max), "records", "info");
  rep.metric("core.visible_lag_ms", median(vis50), "ms", "info");
  rep.metric("core.flush_ms", median(flush_ms), "ms", "info");
  rep.metric("query.empty_share", median(empty_share), "ratio", "info");
  report_core_counters(rep, core);
  if (opt.trace) {
    rep.metric("trace_overhead", median(traced_q50) / median(untraced_q50),
               "ratio", "info");
    report_layer_shares(rep, {"bench.rep", "bench.reader"});
  }
}

}  // namespace farmbench
