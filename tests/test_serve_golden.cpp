// Golden gate for the serving path (MdsServer, the metadata cache and its
// replacement policies, the two-priority disk queue and the event loop):
// every built-in scenario served through serve() by fpa, nexus and none,
// and run_cluster() over two paper traces under each cache policy, must
// reproduce recorded fingerprints of their outcome — every WindowStats
// field, the response histogram, the cache counters, the prefetch batch
// and duplicate-suppression counts and the simulated run length.
//
// The serving tests elsewhere check contracts (windows sum to totals,
// determinism run against run); a change to the serving machinery that
// reorders events or moves a cache decision passes them as long as it is
// self-consistent. These values were recorded from a known-good serving
// path instead; a speed change to it must leave them untouched, and a
// deliberate behaviour change re-pins them with a note in CHANGES.md.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <string_view>

#include "analysis/experiment.hpp"
#include "api/predictor_factory.hpp"
#include "serve/harness.hpp"
#include "serve/scenario.hpp"
#include "storage/cluster.hpp"
#include "trace/generator.hpp"

namespace farmer {
namespace {

// FNV-1a, kept local so the fingerprint does not depend on any hash the
// code under test might change.
class Fnv64 {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void hist(const LatencyHistogram& h) {
    u64(h.count());
    f64(h.mean());
    u64(h.max_value());
    for (int pct = 0; pct <= 100; ++pct) u64(h.quantile(pct / 100.0));
  }
  void cache(const CacheStats& c) {
    u64(c.demand.numerator());
    u64(c.demand.denominator());
    u64(c.prefetch_inserted);
    u64(c.prefetch_used);
    u64(c.prefetch_evicted_unused);
    u64(c.evictions);
  }
  void running(const RunningStats& s) {
    u64(s.count());
    f64(s.mean());
    f64(s.variance());
    f64(s.min());
    f64(s.max());
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// The readable part of a fingerprint plus one hash over everything else.
struct Outcome {
  std::uint64_t requests = 0;
  std::uint64_t hits = 0;
  std::uint64_t batches = 0;
  std::int64_t sim_duration = 0;
  std::uint64_t hash = 0;
};

std::string describe(const Outcome& o) {
  char line[160];
  std::snprintf(line, sizeof line, "{%llu, %llu, %llu, %lld, 0x%llx}",
                static_cast<unsigned long long>(o.requests),
                static_cast<unsigned long long>(o.hits),
                static_cast<unsigned long long>(o.batches),
                static_cast<long long>(o.sim_duration),
                static_cast<unsigned long long>(o.hash));
  return line;
}

Outcome fingerprint(const ServingResult& r) {
  Fnv64 h;
  h.u64(r.windows.size());
  for (const WindowStats& w : r.windows) {
    h.u64(w.index);
    h.u64(static_cast<std::uint64_t>(w.begin_us));
    h.u64(static_cast<std::uint64_t>(w.end_us));
    h.u64(w.demand_requests);
    h.u64(w.demand_hits);
    h.u64(w.prefetch_inserted);
    h.u64(w.prefetch_used);
    h.u64(w.prefetch_evicted_unused);
    h.u64(w.invalidations);
    h.u64(w.responses);
    h.f64(w.mean_response_us);
    h.u64(w.p50_response_us);
    h.u64(w.p95_response_us);
    h.u64(w.p99_response_us);
    h.u64(w.ingest_pending);
    h.u64(w.ingest_epoch);
    h.u64(w.model_footprint_bytes);
  }
  h.hist(r.response);
  h.cache(r.cache);
  h.u64(r.prefetch_batches);
  h.u64(r.duplicate_suppressed);
  h.u64(r.invalidations);
  h.u64(static_cast<std::uint64_t>(r.sim_duration));
  return {r.requests, r.cache.demand.numerator(), r.prefetch_batches,
          r.sim_duration, h.value()};
}

Outcome fingerprint(const ClusterMetrics& m) {
  Fnv64 h;
  h.hist(m.response);
  h.cache(m.cache);
  h.running(m.demand_wait);
  h.running(m.prefetch_wait);
  h.u64(m.prefetch_batches);
  h.u64(m.duplicate_suppressed);
  h.u64(static_cast<std::uint64_t>(m.sim_duration));
  return {m.requests, m.cache.demand.numerator(), m.prefetch_batches,
          m.sim_duration, h.value()};
}

// ------------------------------------------------------------- serve() ---

struct ServeCase {
  const char* scenario;
  const char* predictor;
  Outcome want;
};

void PrintTo(const ServeCase& c, std::ostream* os) {
  *os << c.scenario << "/" << c.predictor;
}

// Recorded values: {requests, demand hits, prefetch batches, sim duration,
// hash of every field}.
const ServeCase kServeCases[] = {
    {"churn", "fpa", {18310, 10537, 5634, 45284684, 0xfe45a29174c7a4a}},
    {"churn", "nexus", {18310, 8500, 6412, 45284684, 0x35dfc70eb3967739}},
    {"churn", "none", {18310, 6429, 0, 45284684, 0xd7e19266888cf860}},
    {"cold_start", "fpa", {4178, 916, 535, 2991843, 0xd5dbc4a3d869c62e}},
    {"cold_start", "nexus", {4178, 940, 1108, 2993445, 0x5a623a4a56eabf6d}},
    {"cold_start", "none", {4178, 979, 0, 2991843, 0xe8e82ab8e01fbda9}},
    {"diurnal", "fpa", {8357, 2074, 1454, 6244669, 0xce3263a6bf4e45e5}},
    {"diurnal", "nexus", {8357, 1932, 2384, 6246689, 0x7c10229ae57519c7}},
    {"diurnal", "none", {8357, 1937, 0, 6244669, 0xc90e554ea73c5932}},
    {"flash_crowd", "fpa", {8284, 5083, 2289, 119035636, 0x9748cf06590147ed}},
    {"flash_crowd", "nexus", {8284, 4664, 2272, 119035636, 0xb6900260ffb26a84}},
    {"flash_crowd", "none", {8284, 2597, 0, 119035636, 0xa96f3922efbca6dc}},
    {"smoke", "fpa", {6336, 4098, 1114, 30630443, 0x84da66b8384376cf}},
    {"smoke", "nexus", {6336, 4192, 853, 30630115, 0x3f4cd5522a3e51c3}},
    {"smoke", "none", {6336, 3806, 0, 30630424, 0x3cbacd3c377f1a20}},
    {"steady", "fpa", {8357, 1934, 1647, 6244669, 0xc32fe68d93d0e50f}},
    {"steady", "nexus", {8357, 1926, 2641, 6246567, 0xa21e737bce464360}},
    {"steady", "none", {8357, 1948, 0, 6244669, 0xf99b3ec51d1c5067}},
    {"tenant_shift", "fpa",
     {16931, 10248, 2318, 108457040, 0x67f7eb1e758afdbb}},
    {"tenant_shift", "nexus",
     {16931, 9672, 2488, 108457040, 0xc60b44a8241d83e6}},
    {"tenant_shift", "none", {16931, 7609, 0, 108458888, 0x9f8a6c65cdc0bc7}},
    {"warm_start", "fpa", {4178, 929, 811, 2991843, 0x285039358dbea852}},
    {"warm_start", "nexus", {4178, 985, 1366, 2993407, 0x37be9ff8d6fcc2c5}},
    {"warm_start", "none", {4178, 979, 0, 2991843, 0xe8e82ab8e01fbda9}},
};

class ServeGolden : public ::testing::TestWithParam<ServeCase> {};

TEST_P(ServeGolden, OutcomeMatchesRecordedFingerprint) {
  const ServeCase& c = GetParam();
  const Outcome got =
      fingerprint(run_scenario(scenario_spec(c.scenario), c.predictor));
  SCOPED_TRACE(std::string(c.scenario) + "/" + c.predictor + " fingerprint " +
               describe(got));
  EXPECT_EQ(got.requests, c.want.requests);
  EXPECT_EQ(got.hits, c.want.hits);
  EXPECT_EQ(got.batches, c.want.batches);
  EXPECT_EQ(got.sim_duration, c.want.sim_duration);
  EXPECT_EQ(got.hash, c.want.hash);
}

TEST(ServeGoldenCoverage, EveryBuiltInScenarioIsPinned) {
  for (const std::string& name : registered_scenarios()) {
    int pinned = 0;
    for (const ServeCase& c : kServeCases) pinned += name == c.scenario;
    EXPECT_EQ(pinned, 3) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, ServeGolden, ::testing::ValuesIn(kServeCases),
    [](const ::testing::TestParamInfo<ServeCase>& info) {
      return std::string(info.param.scenario) + "_" + info.param.predictor;
    });

// -------------------------------------------------------- run_cluster() ---

struct ClusterCase {
  const char* name;
  TraceKind trace;
  CachePolicy policy;
  const char* predictor;
  bool batch_prefetch;
  Outcome want;
};

void PrintTo(const ClusterCase& c, std::ostream* os) { *os << c.name; }

const ClusterCase kClusterCases[] = {
    {"HP_LRU_fpa", TraceKind::kHP, CachePolicy::kLRU, "fpa", true,
     {12714, 6835, 5165, 29267207, 0x70a0266386d2f577}},
    {"HP_LFU_fpa", TraceKind::kHP, CachePolicy::kLFU, "fpa", true,
     {12714, 2399, 6933, 29267207, 0x7f4f3787ff982354}},
    {"HP_CLOCK_fpa", TraceKind::kHP, CachePolicy::kCLOCK, "fpa", true,
     {12714, 6883, 5194, 29267207, 0xec4df6e93ebe07ab}},
    {"HP_ARC_fpa", TraceKind::kHP, CachePolicy::kARC, "fpa", true,
     {12714, 6208, 5121, 29267207, 0x75614911d9561097}},
    {"HP_LRU_none", TraceKind::kHP, CachePolicy::kLRU, "none", true,
     {12714, 2544, 0, 29267207, 0x9b8782634f728089}},
    {"HP_LRU_fpa_unbatched", TraceKind::kHP, CachePolicy::kLRU, "fpa", false,
     {12714, 6816, 5156, 29267207, 0x3f977e2a3980c42f}},
    {"LLNL_LRU_fpa", TraceKind::kLLNL, CachePolicy::kLRU, "fpa", true,
     {12672, 6414, 7584, 42545912, 0xc1050f3aba1d2dd4}},
    {"LLNL_LFU_fpa", TraceKind::kLLNL, CachePolicy::kLFU, "fpa", true,
     {12672, 2113, 7344, 42545784, 0x4b4c3604d1bbb3a9}},
    {"LLNL_CLOCK_fpa", TraceKind::kLLNL, CachePolicy::kCLOCK, "fpa", true,
     {12672, 6440, 7606, 42545835, 0xba144a4038385fad}},
    {"LLNL_ARC_fpa", TraceKind::kLLNL, CachePolicy::kARC, "fpa", true,
     {12672, 5841, 7163, 42546449, 0x5d023535cc746c7f}},
    {"LLNL_LRU_none", TraceKind::kLLNL, CachePolicy::kLRU, "none", true,
     {12672, 1016, 0, 42546162, 0xc09cd9fde1445944}},
};

class ClusterGolden : public ::testing::TestWithParam<ClusterCase> {};

TEST_P(ClusterGolden, OutcomeMatchesRecordedFingerprint) {
  const ClusterCase& c = GetParam();
  const Trace trace = make_paper_trace(c.trace, kExperimentSeed, 0.1);
  FarmerConfig cfg;
  cfg.attributes = trace.has_paths ? AttributeMask::all_with_path()
                                   : AttributeMask::all_with_fileid();
  const auto predictor = make_predictor(c.predictor, cfg, trace.dict);
  // The latency figures' MDS (bench_fig6/fig8/ablation).
  ClusterConfig cc;
  cc.mds.cache_capacity = default_cache_capacity(trace);
  cc.mds.prefetch_degree = kDefaultPrefetchDegree;
  cc.mds.disk_servers = 2;
  cc.mds.policy = c.policy;
  cc.mds.batch_prefetch = c.batch_prefetch;
  const Outcome got = fingerprint(run_cluster(trace, *predictor, cc));
  SCOPED_TRACE(std::string(c.name) + " fingerprint " + describe(got));
  EXPECT_EQ(got.requests, c.want.requests);
  EXPECT_EQ(got.hits, c.want.hits);
  EXPECT_EQ(got.batches, c.want.batches);
  EXPECT_EQ(got.sim_duration, c.want.sim_duration);
  EXPECT_EQ(got.hash, c.want.hash);
}

INSTANTIATE_TEST_SUITE_P(
    Traces, ClusterGolden, ::testing::ValuesIn(kClusterCases),
    [](const ::testing::TestParamInfo<ClusterCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace farmer
