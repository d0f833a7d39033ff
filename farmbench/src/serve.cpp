// Workload `serve`: the paper's use case, a closed-loop serve.
//
// FPA over the synchronous "farmer" backend runs through serve() on an
// eight-tenant merged workload (LLNL/INS/RES/HP twice) with the default MDS
// cache. Arrival gaps are scaled by kTimeScale so the simulated MDS keeps
// up; at the native rate the run builds a backlog (see NOTES.md). Each
// request costs one prefetch observe + predict, a cache access, possibly a
// disk fetch, and the simulator's event handling.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "api/predictor_factory.hpp"
#include "bench.hpp"
#include "serve/harness.hpp"
#include "spans.hpp"

namespace farmbench {

namespace {

constexpr double kTimeScale = 4.0;
constexpr std::size_t kWindows = 12;
constexpr std::size_t kSetups = 5;
constexpr std::size_t kMinReps = 3;

/// Forwards to the serving predictor, recording observe/predict spans
/// (traced reps) and, when given a histogram (untraced reps), the host time
/// between consecutive requests reaching the predictor: the time the loop
/// spent on one request.
class ClockedPredictor final : public farmer::Predictor {
 public:
  ClockedPredictor(farmer::Predictor& inner, Histogram* gaps)
      : inner_(inner), gaps_(gaps) {}

  void observe(const farmer::TraceRecord& rec) override {
    static const spans::Name kObserve("prefetch.observe");
    if (gaps_) stamp();
    const Span s(kObserve, requests_++);
    inner_.observe(rec);
  }
  void predict(const farmer::TraceRecord& rec, std::size_t limit,
               farmer::PredictionList& out) override {
    static const spans::Name kPredict("prefetch.predict");
    const std::size_t before = out.size();
    {
      const Span s(kPredict, requests_ - 1);
      inner_.predict(rec, limit, out);
    }
    ++predict_calls_;
    predictions_ += out.size() - before;
  }
  void flush() override { inner_.flush(); }
  [[nodiscard]] const char* name() const noexcept override {
    return inner_.name();
  }
  [[nodiscard]] std::size_t footprint_bytes() const override {
    return inner_.footprint_bytes();
  }
  [[nodiscard]] farmer::CorrelationMiner* miner() noexcept override {
    return inner_.miner();
  }

  /// Closes the last request's gap; call when serve() returns.
  void stamp() {
    const std::int64_t now = now_ns();
    if (last_ != 0) gaps_->record(static_cast<std::uint64_t>(now - last_));
    last_ = now;
  }

  [[nodiscard]] std::uint64_t predict_calls() const { return predict_calls_; }
  [[nodiscard]] std::uint64_t predictions() const { return predictions_; }

 private:
  farmer::Predictor& inner_;
  Histogram* gaps_;
  std::int64_t last_ = 0;
  std::uint64_t requests_ = 0;
  std::uint64_t predict_calls_ = 0;
  std::uint64_t predictions_ = 0;
};

farmer::ScenarioSpec make_spec(std::uint64_t seed) {
  farmer::ScenarioSpec spec;
  spec.name = "farmbench_serve";
  spec.tenants = {farmer::TraceKind::kLLNL, farmer::TraceKind::kINS,
                  farmer::TraceKind::kRES,  farmer::TraceKind::kHP,
                  farmer::TraceKind::kLLNL, farmer::TraceKind::kINS,
                  farmer::TraceKind::kRES,  farmer::TraceKind::kHP};
  spec.seed = seed;
  spec.scale = 1.0;
  spec.time_scale = kTimeScale;
  spec.windows = kWindows;
  return spec;
}

std::unique_ptr<farmer::Predictor> make_fpa(const farmer::Trace& trace) {
  farmer::PredictorOptions po;
  po.miner_backend = "farmer";
  return farmer::make_predictor("fpa", config_for(trace.has_paths),
                                trace.dict, po);
}

/// The facts of one serve() run that must not change between reps.
struct Outcome {
  std::uint64_t hits, demand, inserted, used, evicted_unused, batches,
      suppressed, p50, p99, responses, pairs;
  std::size_t footprint;
  bool operator==(const Outcome&) const = default;
};

}  // namespace

void run_serve(const Options& opt, Report& rep) {
  namespace fs = std::filesystem;
  static const spans::Name kRep("bench.rep");
  static const spans::Name kServe("serve.run");

  const farmer::ScenarioSpec spec = make_spec(opt.seed);
  std::vector<double> setup_s;
  farmer::ScenarioWorkload wl;
  for (std::size_t i = 0; i < kSetups; ++i) {
    wl = {};
    setup_s.push_back(time_s([&] {
      wl = farmer::build_workload(spec);
      (void)make_fpa(wl.trace);
    }));
  }
  const std::size_t served = wl.trace.records.size() - wl.pretrain_records;
  rep.fingerprint("records", static_cast<double>(served));
  rep.fingerprint("files", static_cast<double>(wl.trace.file_count()));
  rep.fingerprint("tenants", "LLNL,INS,RES,HP,LLNL,INS,RES,HP");
  rep.fingerprint("time_scale", kTimeScale);
  rep.fingerprint("predictor", "fpa/farmer");

  std::uint64_t gaps = 0;
  std::vector<double> us_per_req, gap_p50, gap_p99, traced_wall,
      untraced_wall;
  std::vector<Recovery> recoveries;
  farmer::MinerStats core;
  std::vector<Outcome> outcomes;
  farmer::ServingResult first;
  std::uint64_t predict_calls = 0, predictions = 0;
  bool windows_ok = true;
  std::string windows_detail = "window counters sum to run totals";
  repeat_for(opt.seconds, kMinReps, [&](std::size_t r) {
    const bool timed = r >= kWarmupReps;
    const bool traced = timed && opt.trace && r % 2 == 1;
    Histogram request_ns;
    auto fpa = make_fpa(wl.trace);
    ClockedPredictor clocked(*fpa, traced ? nullptr : &request_ns);
    auto fresh = make_fpa(wl.trace);
    farmer::ServingResult res;
    double wall = 0;
    spans::enable(traced);
    {
      const Span root(kRep, r);
      wall = time_s([&] {
        const Span s(kServe);
        res = farmer::serve(spec, wl, clocked);
        if (!traced) clocked.stamp();
      });
      recoveries.push_back(round_trip(
          *fpa->miner(), *fresh->miner(),
          (fs::path(opt.work_dir) / ("ckpt" + std::to_string(r))).string(),
          wl.trace.records.front().file));
    }
    spans::enable(false);
    const farmer::MinerStats st = fpa->miner()->stats();
    if (r == 0) core = st;

    rep.attempt(served);
    if (res.response.count() < served) rep.fail(served - res.response.count());
    if (timed) (traced ? traced_wall : untraced_wall).push_back(wall);
    if (timed && !traced) {
      us_per_req.push_back(wall * 1e6 / static_cast<double>(res.requests));
      gap_p50.push_back(request_ns.quantile(0.50));
      gap_p99.push_back(request_ns.quantile(0.99));
      gaps += request_ns.count();
    }
    predict_calls += clocked.predict_calls();
    predictions += clocked.predictions();

    // Check: responses equal requests, window counters sum to run totals.
    std::uint64_t demand = 0, hits = 0, inserted = 0, used = 0, evicted = 0,
                  responses = 0;
    for (const farmer::WindowStats& w : res.windows) {
      demand += w.demand_requests;
      hits += w.demand_hits;
      inserted += w.prefetch_inserted;
      used += w.prefetch_used;
      evicted += w.prefetch_evicted_unused;
      responses += w.responses;
    }
    const bool ok = res.requests == served &&
                    res.response.count() == res.requests &&
                    responses == res.requests &&
                    demand == res.cache.demand.denominator() &&
                    hits == res.cache.demand.numerator() &&
                    inserted == res.cache.prefetch_inserted &&
                    used == res.cache.prefetch_used &&
                    evicted == res.cache.prefetch_evicted_unused;
    if (!ok) {
      windows_ok = false;
      windows_detail = "rep " + std::to_string(r) + ": requests " +
                       std::to_string(res.requests) + ", responses " +
                       std::to_string(res.response.count()) + "/" +
                       std::to_string(responses) + ", demand " +
                       std::to_string(demand) + "/" +
                       std::to_string(res.cache.demand.denominator());
    }
    outcomes.push_back(Outcome{res.cache.demand.numerator(),
                               res.cache.demand.denominator(),
                               res.cache.prefetch_inserted,
                               res.cache.prefetch_used,
                               res.cache.prefetch_evicted_unused,
                               res.prefetch_batches, res.duplicate_suppressed,
                               res.response.p50(), res.response.p99(),
                               res.response.count(), st.pairs_evaluated,
                               res.model_footprint_bytes});
    if (r == 0) first = std::move(res);
  });

  rep.check("serve.responses_and_windows", windows_ok, windows_detail);
  rep.check("serve.deterministic_metrics",
            std::all_of(outcomes.begin(), outcomes.end(),
                        [&](const Outcome& o) { return o == outcomes.front(); }),
            "hit ratio, precision, sim latency, pair evaluations, model bytes "
            "identical over " +
                std::to_string(outcomes.size()) + " reps");

  std::vector<double> window_p99;
  for (const farmer::WindowStats& w : first.windows)
    window_p99.push_back(static_cast<double>(w.p99_response_us));
  const double backlog =
      *std::max_element(window_p99.begin(), window_p99.end()) /
      median(window_p99);
  rep.check("serve.no_backlog", backlog < 4.0,
            "max window p99 / median window p99 = " + std::to_string(backlog));

  // End to end.
  rep.metric("setup_s", median(setup_s), "s", "lower");
  rep.metric("peak_rss_mb", peak_rss_mb(), "MiB", "lower");
  rep.metric("model_bytes", static_cast<double>(first.model_footprint_bytes),
             "bytes", "lower");
  report_recovery(rep, recoveries);
  rep.metric("ops_per_s", 1e6 / median(us_per_req), "1/s", "higher");
  rep.metric("op_p50_us", median(gap_p50) / 1e3, "us", "lower");
  rep.metric("op_p99_us", median(gap_p99) / 1e3, "us", "lower");
  rep.metric("op_samples", static_cast<double>(gaps), "count", "info");
  rep.metric("serve_us_per_req", median(us_per_req), "us", "lower");
  rep.metric("demand_hit_ratio", first.demand_hit_ratio(), "ratio", "higher");
  rep.metric("prefetch_precision", first.cache.prefetch_accuracy(), "ratio",
             "higher");
  rep.metric("sim_p50_us", static_cast<double>(first.response.p50()), "us",
             "lower");
  rep.metric("sim_p99_us", static_cast<double>(first.response.p99()), "us",
             "lower");

  // Per layer.
  rep.metric("cache.demand_hit_ratio", first.demand_hit_ratio(), "ratio",
             "info");
  rep.metric("cache.prefetch_precision", first.cache.prefetch_accuracy(),
             "ratio", "info");
  rep.metric("cache.pollution_ratio", first.cache.pollution_ratio(), "ratio",
             "info");
  rep.metric("storage.prefetch_batches",
             static_cast<double>(first.prefetch_batches), "count", "info");
  rep.metric("storage.duplicate_suppressed",
             static_cast<double>(first.duplicate_suppressed), "count", "info");
  rep.metric("sim.p50_us", static_cast<double>(first.response.p50()), "us",
             "info");
  rep.metric("sim.p99_us", static_cast<double>(first.response.p99()), "us",
             "info");
  rep.metric("sim.mean_us", first.response.mean(), "us", "info");
  rep.metric("serve.backlog_ratio", backlog, "ratio", "info");
  report_core_counters(rep, core);
  rep.metric("prefetch.predictions_per_call",
             static_cast<double>(predictions) /
                 static_cast<double>(predict_calls),
             "count", "info");
  if (opt.trace) {
    const SpanAggregate ob = spans::aggregate("prefetch.observe");
    const SpanAggregate pr = spans::aggregate("prefetch.predict");
    const SpanAggregate sv = spans::aggregate("serve.run");
    for (const SpanAggregate* a : {&ob, &pr}) {
      rep.metric(a->name + "_p50_ns", a->quantile_ns(0.50), "ns", "info");
      rep.metric(a->name + "_p99_ns", a->quantile_ns(0.99), "ns", "info");
      rep.metric(a->name + "_count", static_cast<double>(a->count), "count",
                 "info");
    }
    const double requests = static_cast<double>(ob.count);
    const double self_us = static_cast<double>(sv.self_ns) / 1e3 / requests;
    rep.metric("serve.self_us_per_req", self_us, "us", "info");
    // The cut must account for the wall time: observe + predict + serve
    // self time (spans, TSC) against serve() timed by steady_clock, both
    // per request over the traced reps.
    const double parts =
        static_cast<double>(ob.total_ns + pr.total_ns) / 1e3 / requests +
        self_us;
    double traced_s = 0;
    for (const double w : traced_wall) traced_s += w;
    const double wall = traced_s * 1e6 / requests;
    const double gap = std::abs(parts - wall) / wall;
    rep.check("serve.layers_sum_to_wall", gap <= 0.10,
              "observe + predict + self = " + std::to_string(parts) +
                  " us/req vs wall " + std::to_string(wall));
    rep.metric("serve.layer_sum_error", gap, "ratio", "info");
    // The same cut against the untraced host cost: tracing overhead plus
    // the host's drift between reps, so reported, not checked.
    rep.metric("serve.layer_sum_vs_untraced",
               parts / median(us_per_req), "ratio", "info");
    rep.metric("trace_overhead", median(traced_wall) / median(untraced_wall),
               "ratio", "info");
    report_layer_shares(rep, {"bench.rep"});
  }
}

}  // namespace farmbench
