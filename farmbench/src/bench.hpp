// Shared pieces of the farmbench workloads: options, the report every
// workload fills, and small measurement helpers.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/correlation_miner.hpp"
#include "core/config.hpp"
#include "histogram.hpp"
#include "trace/record.hpp"
#include "trace/trace_stream.hpp"

namespace farmbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;   ///< scratch files (traces, checkpoints)
  std::string span_path;  ///< traced run: where the spans are written
  std::string git_sha;
  std::string src_digest;
};

/// What one invocation measured. Metrics are printed as they are; run.py
/// picks the ones BENCHMARK.json names for the run's mode.
class Report {
 public:
  void metric(std::string name, double value, std::string unit,
              std::string better);
  /// Records an output check; a failed check makes the run incorrect.
  void check(const std::string& name, bool ok, const std::string& detail);
  void fingerprint(std::string key, std::string value);
  void fingerprint(std::string key, double value);
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  void fail(std::uint64_t n = 1) { failed_ += n; }

  [[nodiscard]] bool correct() const noexcept { return correct_; }
  [[nodiscard]] std::string fingerprint_json() const;
  /// Prints every metric, the fingerprint and the counts, one per line
  /// (checks print as they are recorded).
  void print() const;

 private:
  struct Metric {
    std::string name, unit, better;
    double value;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> fingerprint_;  // JSON values
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
};

/// Median / quantile of `v` (copied; 0 for an empty vector).
[[nodiscard]] double median(std::vector<double> v);
[[nodiscard]] double quantile(std::vector<double> v, double q);

/// Peak resident set of this process so far, MiB.
[[nodiscard]] double peak_rss_mb();

/// Total size of the regular files under `dir`, bytes.
[[nodiscard]] std::uint64_t dir_bytes(const std::string& dir);

/// Order-sensitive hash over every file's Correlator List (file ids and the
/// bit patterns of the degrees) for FileIds [0, file_count).
[[nodiscard]] std::uint64_t model_digest(const farmer::CorrelationMiner& m,
                                         std::size_t file_count);

/// Seconds `fn` takes.
[[nodiscard]] double time_s(const std::function<void()>& fn);

/// Reps before this index are warm-up: workloads check their outputs but
/// leave them out of every timing.
constexpr std::size_t kWarmupReps = 1;

/// Runs `rep` (given the 0-based rep index) until `seconds` have passed and
/// at least `min_reps` ran after the warm-up.
void repeat_for(double seconds, std::size_t min_reps,
                const std::function<void(std::size_t)>& rep);

/// Set-up of the ingest workloads (mine, mixed), done `times` times with
/// the last one kept: the four-tenant trace (LLNL, INS, RES, HP; `rounds`
/// generator rounds each) is streamed to part files, merged into one v3 file
/// and opened as a TraceReader mapping, then `construct` builds the
/// workload's miner. Each step is timed per set-up.
struct IngestSetup {
  std::unique_ptr<farmer::TraceReader> reader;
  std::vector<double> setup_s;     ///< the whole set-up
  std::vector<double> generate_s;  ///< streamed generation + part writes
  std::vector<double> merge_s;     ///< k-way merge into the v3 file
  std::vector<double> open_s;      ///< TraceReader open (checksum, dict)
};
[[nodiscard]] IngestSetup set_up_ingest(
    const Options& opt, std::size_t rounds, std::size_t times,
    const std::function<void(const farmer::TraceReader&)>& construct);

/// Reports setup_s and the set-up's trace/load layer metrics.
void report_setup(Report& rep, const IngestSetup& s);

/// One checkpoint round trip: `model` save()s into `dir`, `fresh` load()s
/// it, and the first query on `file` is answered; the directory is removed.
struct Recovery {
  double save_s = 0;
  double load_s = 0;
  double first_query_s = 0;
  std::uint64_t checkpoint_bytes = 0;
};
[[nodiscard]] Recovery round_trip(farmer::CorrelationMiner& model,
                                  farmer::CorrelationMiner& fresh,
                                  const std::string& dir, farmer::FileId file);

/// Reports recover_s (load + first query) and the persist layer metrics,
/// medians over `runs` after the warm-up.
void report_recovery(Report& rep, const std::vector<Recovery>& runs);

/// FarmerConfig for a trace: every attribute, path-based when it has paths.
[[nodiscard]] farmer::FarmerConfig config_for(bool has_paths);

/// The traced run's layer shares: for each layer, the self time of its
/// spans ("<layer>.<call>") as a share of the `roots` spans' total duration
/// (thread time, summed over the threads that ran a root span), reported as
/// "<layer>.self_share". The roots' own self time is the benchmark's share
/// ("bench.self_share"). Layers with no spans report 0.
void report_layer_shares(Report& rep, const std::vector<std::string>& roots);

/// Kernel counters of a miner that ingested every record of a run:
/// core.pairs_per_record and core.accept_ratio (deterministic).
void report_core_counters(Report& rep, const farmer::MinerStats& s);

void run_mine(const Options& opt, Report& rep);
void run_serve(const Options& opt, Report& rep);
void run_mixed(const Options& opt, Report& rep);

}  // namespace farmbench
