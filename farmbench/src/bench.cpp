#include <sys/resource.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "bench.hpp"
#include "spans.hpp"
#include "analysis/table.hpp"
#include "common/hash.hpp"
#include "trace/generator.hpp"

namespace farmbench {

using farmer::json_quote;

namespace {

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void Report::metric(std::string name, double value, std::string unit,
                    std::string better) {
  if (!std::isfinite(value)) {
    check("finite:" + name, false, "metric is not a finite number");
    value = 0.0;
  }
  metrics_.push_back(
      Metric{std::move(name), std::move(unit), std::move(better), value});
}

void Report::check(const std::string& name, bool ok,
                   const std::string& detail) {
  std::printf("CHECK %s %s %s\n", ok ? "ok" : "FAILED", name.c_str(),
              detail.c_str());
  if (!ok) correct_ = false;
}

void Report::fingerprint(std::string key, std::string value) {
  fingerprint_.emplace_back(std::move(key), json_quote(value));
}

void Report::fingerprint(std::string key, double value) {
  fingerprint_.emplace_back(std::move(key), number(value));
}

std::string Report::fingerprint_json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fingerprint_.size(); ++i) {
    if (i) out += ", ";
    out += json_quote(fingerprint_[i].first) + ": " +
           fingerprint_[i].second;
  }
  return out + "}";
}

void Report::print() const {
  for (const Metric& m : metrics_)
    std::printf("METRIC {\"name\": %s, \"value\": %s, \"unit\": %s, "
                "\"better\": %s}\n",
                json_quote(m.name).c_str(), number(m.value).c_str(),
                json_quote(m.unit).c_str(), json_quote(m.better).c_str());
  std::printf("FINGERPRINT %s\n", fingerprint_json().c_str());
  std::printf("COUNTS {\"correct\": %s, \"attempted\": %llu, \"failed\": "
              "%llu}\n",
              correct_ ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  std::fflush(stdout);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Linear interpolation between closest ranks.
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir))
    if (e.is_regular_file()) total += e.file_size();
  return total;
}

std::uint64_t model_digest(const farmer::CorrelationMiner& m,
                           std::size_t file_count) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (std::size_t f = 0; f < file_count; ++f) {
    const farmer::CorrelatorView v =
        m.snapshot(farmer::FileId(static_cast<std::uint32_t>(f)));
    h = farmer::mix64(h ^ (f << 8) ^ v.size());
    for (const farmer::Correlator& c : v) {
      std::uint32_t bits = 0;
      std::memcpy(&bits, &c.degree, sizeof bits);
      h = farmer::mix64(h ^ (std::uint64_t{c.file.value()} << 32) ^ bits);
    }
  }
  return h;
}

double time_s(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

void repeat_for(double seconds, std::size_t min_reps,
                const std::function<void(std::size_t)>& rep) {
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0;; ++i) {
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (i >= min_reps + kWarmupReps && elapsed >= seconds) break;
    rep(i);
#if defined(__GLIBC__)
    // Hand the rep's freed memory back, so peak RSS measures one rep's live
    // state rather than allocator arenas grown across repetitions.
    malloc_trim(0);
#endif
  }
}

IngestSetup set_up_ingest(
    const Options& opt, std::size_t rounds, std::size_t times,
    const std::function<void(const farmer::TraceReader&)>& construct) {
  namespace fs = std::filesystem;
  IngestSetup out;
  farmer::StreamedTraceSpec spec;
  spec.tenants = {farmer::TraceKind::kLLNL, farmer::TraceKind::kINS,
                  farmer::TraceKind::kRES, farmer::TraceKind::kHP};
  spec.seed = opt.seed;
  spec.scale = 1.0;
  spec.rounds = rounds;
  for (std::size_t i = 0; i < times; ++i) {
    const fs::path dir = fs::path(opt.work_dir) / ("setup" + std::to_string(i));
    fs::create_directories(dir);
    const std::string merged = (dir / "merged.v3").string();
    out.reader.reset();
    farmer::StreamedMultiTenantTrace parts;
    const std::int64_t t0 = now_ns();
    out.generate_s.push_back(time_s(
        [&] { parts = farmer::stream_multi_tenant_trace(spec, dir.string()); }));
    out.merge_s.push_back(time_s([&] {
      farmer::merge_trace_streams(parts.part_paths, merged, parts.name);
    }));
    out.open_s.push_back(time_s(
        [&] { out.reader = std::make_unique<farmer::TraceReader>(merged); }));
    construct(*out.reader);
    out.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    for (const std::string& p : parts.part_paths) fs::remove(p);
    if (i > 0)
      fs::remove_all(fs::path(opt.work_dir) / ("setup" + std::to_string(i - 1)));
  }
  return out;
}

void report_setup(Report& rep, const IngestSetup& s) {
  rep.metric("setup_s", median(s.setup_s), "s", "lower");
  rep.metric("load.generate_s", median(s.generate_s), "s", "info");
  rep.metric("trace.write_s", median(s.merge_s), "s", "info");
  rep.metric("trace.open_s", median(s.open_s), "s", "info");
}

Recovery round_trip(farmer::CorrelationMiner& model,
                    farmer::CorrelationMiner& fresh, const std::string& dir,
                    farmer::FileId file) {
  static const spans::Name kSave("persist.save");
  static const spans::Name kLoad("persist.load");
  static const spans::Name kQuery("query.snapshot");
  Recovery r;
  r.save_s = time_s([&] {
    const Span s(kSave);
    model.save(dir);
  });
  r.load_s = time_s([&] {
    const Span s(kLoad);
    fresh.load(dir);
  });
  r.first_query_s = time_s([&] {
    const Span s(kQuery);
    (void)fresh.snapshot(file);
  });
  r.checkpoint_bytes = dir_bytes(dir);
  std::filesystem::remove_all(dir);
  return r;
}

void report_recovery(Report& rep, const std::vector<Recovery>& runs) {
  std::vector<double> recover, save, load;
  for (std::size_t i = kWarmupReps; i < runs.size(); ++i) {
    const Recovery& r = runs[i];
    recover.push_back(r.load_s + r.first_query_s);
    save.push_back(r.save_s);
    load.push_back(r.load_s);
  }
  rep.metric("recover_s", median(recover), "s", "lower");
  rep.metric("persist.save_s", median(save), "s", "info");
  rep.metric("persist.load_s", median(load), "s", "info");
  rep.metric("persist.checkpoint_bytes",
             static_cast<double>(runs.front().checkpoint_bytes), "bytes",
             "info");
}

farmer::FarmerConfig config_for(bool has_paths) {
  farmer::FarmerConfig cfg;
  cfg.attributes = has_paths ? farmer::AttributeMask::all_with_path()
                             : farmer::AttributeMask::all_with_fileid();
  return cfg;
}

void report_core_counters(Report& rep, const farmer::MinerStats& s) {
  const double n = static_cast<double>(std::max<std::uint64_t>(1, s.requests));
  rep.metric("core.pairs_per_record",
             static_cast<double>(s.pairs_evaluated) / n, "pairs", "info");
  rep.metric("core.accept_ratio", s.acceptance_rate(), "ratio", "info");
}

void report_layer_shares(Report& rep,
                         const std::vector<std::string>& roots) {
  // trace is timed only in set-up, outside every root span.
  static const char* const kLayers[] = {"load",     "core",  "query",
                                        "prefetch", "serve", "persist"};
  double total = 0, root_self = 0;
  for (const std::string& root : roots) {
    const SpanAggregate r = spans::aggregate(root);
    total += static_cast<double>(r.total_ns);
    root_self += static_cast<double>(r.self_ns);
  }
  for (const char* layer : kLayers) {
    const std::string prefix = std::string(layer) + ".";
    double self = 0;
    for (const std::string& n : spans::names())
      if (n.rfind(prefix, 0) == 0)
        self += static_cast<double>(spans::aggregate(n).self_ns);
    rep.metric(prefix + "self_share", total > 0 ? self / total : 0.0,
               "ratio", "info");
  }
  rep.metric("bench.self_share",
             total > 0 ? root_self / total : 0.0,
             "ratio", "info");
}

}  // namespace farmbench
