// Golden gate for the ingest kernel (Farmer::observe_impl and the graph
// operations under it): fixed-seed multi-tenant traces mined by "farmer"
// and by "sharded" x4 must reproduce recorded fingerprints of the model —
// every Correlator List bit for bit, the CoMiner counters, and the
// serialized per-shard checkpoint bytes.
//
// The differential suites compare one backend against another, and every
// backend runs the same kernel, so a change to the kernel's arithmetic or
// ordering moves both sides in lockstep and passes them all. These values
// were recorded from a known-good kernel instead; a kernel optimization
// must leave them untouched, and a deliberate behaviour change re-pins them
// with a note in CHANGES.md saying why.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "api/miner_factory.hpp"
#include "core/farmer.hpp"
#include "core/sharded_farmer.hpp"
#include "persist/checkpoint.hpp"
#include "trace/generator.hpp"

namespace farmer {
namespace {

// FNV-1a, kept local so the fingerprint does not depend on any hash the
// code under test might change.
class Fnv64 {
 public:
  void bytes(std::string_view s) {
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001b3ull;
    }
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

struct Fingerprint {
  std::uint64_t lists = 0;  ///< every file's Correlator List, in order
  std::uint64_t blobs = 0;  ///< serialize_shard bytes, shard by shard
  CoMinerStats stats;       ///< summed over shards
};

Fingerprint fingerprint(const std::vector<const Farmer*>& shards,
                        std::uint32_t files) {
  Fingerprint fp;
  Fnv64 lists, blobs;
  for (const Farmer* shard : shards) {
    for (std::uint32_t f = 0; f < files; ++f) {
      const auto& list = shard->correlators(FileId(f));
      lists.u64(list.size());
      for (const Correlator& c : list) {
        lists.u64(c.file.value());
        lists.u64(std::bit_cast<std::uint32_t>(c.degree));
      }
    }
    blobs.bytes(persist::serialize_shard(*shard));
    const CoMinerStats& s = shard->miner_stats();
    fp.stats.pairs_evaluated += s.pairs_evaluated;
    fp.stats.pairs_accepted += s.pairs_accepted;
    fp.stats.pairs_filtered += s.pairs_filtered;
  }
  fp.lists = lists.value();
  fp.blobs = blobs.value();
  return fp;
}

struct GoldenCase {
  const char* name;
  bool paths;  ///< IPA over path traces, else the fileid attribute mask
  std::size_t max_successors;
  std::size_t correlator_capacity;
  const char* backend;
  Fingerprint want;
};

// Recorded values. The tight configs keep successor sets and lists full
// most of the time, so eviction and the capacity cut run on most pairs.
const GoldenCase kCases[] = {
    {"ipa_default_farmer", true, 16, 8, "farmer",
     {0x66b01b04039205b0, 0x918679cb07e1bd09, {100688, 25636, 75052}}},
    {"ipa_default_sharded", true, 16, 8, "sharded",
     {0xafe96f71f6fd4204, 0x54b2ddb576536af9, {100685, 46051, 54634}}},
    {"ipa_tight_farmer", true, 3, 2, "farmer",
     {0x6507179abf077bca, 0x23d489949671285b, {100688, 25404, 75284}}},
    {"ipa_tight_sharded", true, 3, 2, "sharded",
     {0x528a273e8be3d5c, 0x1a88214eb8c4125c, {100685, 45751, 54934}}},
    {"fileid_default_farmer", false, 16, 8, "farmer",
     {0xe3a3d6b4b387ca51, 0x80af7e6df61f7c57, {43929, 7726, 36203}}},
    {"fileid_default_sharded", false, 16, 8, "sharded",
     {0xe955adbeef9f872d, 0x8494ee79b3c030c0, {43787, 15724, 28063}}},
    {"fileid_tight_farmer", false, 3, 2, "farmer",
     {0x69b7c2113ba584ea, 0xbfb931c84091077c, {43929, 7699, 36230}}},
    {"fileid_tight_sharded", false, 3, 2, "sharded",
     {0xc400f4fc4714d109, 0x8b55d0fe56542587, {43787, 15646, 28141}}},
};

const MultiTenantTrace& golden_trace(bool paths) {
  // HP and LLNL carry file paths; INS and RES do not.
  static const MultiTenantTrace with_paths = [] {
    constexpr TraceKind kKinds[] = {TraceKind::kHP, TraceKind::kLLNL};
    return make_multi_tenant_trace(kKinds, 20261, 0.1);
  }();
  static const MultiTenantTrace without_paths = [] {
    constexpr TraceKind kKinds[] = {TraceKind::kINS, TraceKind::kRES};
    return make_multi_tenant_trace(kKinds, 20262, 0.1);
  }();
  return paths ? with_paths : without_paths;
}

// Names the case in test listings instead of dumping its bytes.
void PrintTo(const GoldenCase& gc, std::ostream* os) { *os << gc.name; }

class KernelGolden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(KernelGolden, ModelMatchesRecordedFingerprint) {
  const GoldenCase& gc = GetParam();
  const MultiTenantTrace& mt = golden_trace(gc.paths);
  ASSERT_EQ(mt.trace.has_paths, gc.paths);

  FarmerConfig cfg;
  cfg.attributes = gc.paths ? AttributeMask::all_with_path()
                            : AttributeMask::all_with_fileid();
  cfg.max_successors = gc.max_successors;
  cfg.correlator_capacity = gc.correlator_capacity;
  MinerOptions opts;
  opts.shards = 4;
  opts.apply_threads = 1;
  const auto miner = make_miner(gc.backend, cfg, mt.trace.dict, opts);
  for (const TraceRecord& r : mt.trace.records) miner->observe(r);
  miner->flush();

  std::vector<const Farmer*> shards;
  if (const auto* f = dynamic_cast<const Farmer*>(miner.get())) {
    shards.push_back(f);
  } else {
    const auto* s = dynamic_cast<const ShardedFarmer*>(miner.get());
    ASSERT_NE(s, nullptr);
    for (std::size_t i = 0; i < s->shard_count(); ++i)
      shards.push_back(&s->shard(i));
  }
  const Fingerprint got = fingerprint(
      shards, static_cast<std::uint32_t>(mt.trace.dict->files.size()));

  char line[256];
  std::snprintf(line, sizeof line, "{0x%llx, 0x%llx, {%llu, %llu, %llu}}",
                static_cast<unsigned long long>(got.lists),
                static_cast<unsigned long long>(got.blobs),
                static_cast<unsigned long long>(got.stats.pairs_evaluated),
                static_cast<unsigned long long>(got.stats.pairs_accepted),
                static_cast<unsigned long long>(got.stats.pairs_filtered));
  SCOPED_TRACE(std::string(gc.name) + " fingerprint " + line);
  EXPECT_EQ(got.stats.pairs_evaluated, gc.want.stats.pairs_evaluated);
  EXPECT_EQ(got.stats.pairs_accepted, gc.want.stats.pairs_accepted);
  EXPECT_EQ(got.stats.pairs_filtered, gc.want.stats.pairs_filtered);
  EXPECT_EQ(got.lists, gc.want.lists);
  EXPECT_EQ(got.blobs, gc.want.blobs);
}

INSTANTIATE_TEST_SUITE_P(
    Traces, KernelGolden, ::testing::ValuesIn(kCases),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace farmer
