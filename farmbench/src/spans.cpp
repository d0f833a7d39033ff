#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <stdexcept>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "analysis/table.hpp"

namespace farmbench {

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

// Span timestamps are raw ticks: the time-stamp counter where there is one
// (about half the cost of a steady_clock read), nanoseconds elsewhere.
// Ticks convert to nanoseconds against steady_clock over the process
// lifetime.
std::uint64_t ticks() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(now_ns());
#endif
}

const std::int64_t g_ns0 = now_ns();
const std::uint64_t g_tick0 = ticks();

double ns_per_tick() {
  const std::uint64_t dt = ticks() - g_tick0;
  return dt == 0 ? 1.0 : static_cast<double>(now_ns() - g_ns0) /
                             static_cast<double>(dt);
}

constexpr std::size_t kRawPerThread = 50'000;
constexpr std::size_t kMaxNames = 64;

struct RawSpan {
  std::uint64_t id;
  std::uint64_t parent;  // 0 = root
  std::uint64_t request;
  std::uint64_t start;   // ticks
  std::uint64_t end;
  std::uint16_t name;
};

struct OpenSpan {
  std::uint16_t name;
  std::uint64_t id;
  std::uint64_t request;
  std::uint64_t start;
  std::uint64_t child;  // ticks covered by child spans
};

struct Agg {  // all durations in ticks
  std::uint64_t count = 0;
  std::uint64_t total = 0;
  std::uint64_t self = 0;
  std::unique_ptr<Histogram> durations;  // allocated on first use
};

struct ThreadLog {
  std::uint64_t thread_index = 0;
  std::uint64_t next_seq = 1;
  std::vector<OpenSpan> stack;
  std::vector<RawSpan> raw;
  std::vector<Agg> agg;  // indexed by name id
};

std::atomic<bool> g_enabled{false};
std::mutex g_mu;  // guards g_names and g_logs
std::vector<std::string> g_names;
std::vector<std::unique_ptr<ThreadLog>> g_logs;  // live for the process

ThreadLog* register_log() {
  auto l = std::make_unique<ThreadLog>();
  l->agg.resize(kMaxNames);
  const std::lock_guard lock(g_mu);
  l->thread_index = g_logs.size() + 1;
  g_logs.push_back(std::move(l));
  return g_logs.back().get();
}

// Constant-initialized, so reading it needs no thread_local guard.
thread_local ThreadLog* t_log = nullptr;

ThreadLog& this_log() {
  if (!t_log) t_log = register_log();
  return *t_log;
}

}  // namespace

namespace spans {

void enable(bool on) noexcept { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

SpanAggregate aggregate(const std::string& name) {
  SpanAggregate out;
  out.name = name;
  const std::lock_guard lock(g_mu);
  const auto it = std::find(g_names.begin(), g_names.end(), name);
  if (it == g_names.end()) return out;
  const auto id = static_cast<std::size_t>(it - g_names.begin());
  const double scale = ns_per_tick();
  std::uint64_t total = 0, self = 0;
  for (const auto& l : g_logs) {
    if (id >= l->agg.size()) continue;
    const Agg& a = l->agg[id];
    out.count += a.count;
    total += a.total;
    self += a.self;
    if (a.durations) out.durations.merge(*a.durations);
  }
  out.ns_per_tick = scale;
  out.total_ns = static_cast<std::int64_t>(static_cast<double>(total) * scale);
  out.self_ns = static_cast<std::int64_t>(static_cast<double>(self) * scale);
  return out;
}

std::vector<std::string> names() {
  const std::lock_guard lock(g_mu);
  return g_names;
}

void write_json(const std::string& path, const std::string& header) {
  std::vector<std::string> names;
  std::vector<RawSpan> raw;
  {
    const std::lock_guard lock(g_mu);
    names = g_names;
    for (const auto& l : g_logs)
      raw.insert(raw.end(), l->raw.begin(), l->raw.end());
  }
  std::sort(raw.begin(), raw.end(), [](const RawSpan& a, const RawSpan& b) {
    return a.start < b.start;
  });
  const std::uint64_t t0 = raw.empty() ? 0 : raw.front().start;
  const double scale = ns_per_tick();
  const auto ns = [&](std::uint64_t t) {
    return static_cast<long long>(static_cast<double>(t - t0) * scale);
  };

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) throw std::runtime_error("cannot write span file " + path);
  std::fprintf(f, "{%s,\n\"aggregates\": [", header.c_str());
  bool first = true;
  for (const std::string& n : names) {
    const SpanAggregate a = aggregate(n);
    std::fprintf(f,
                 "%s\n  {\"name\": %s, \"count\": %llu, \"total_ns\": "
                 "%lld, \"self_ns\": %lld, \"p50_ns\": %.0f, \"p99_ns\": "
                 "%.0f}",
                 first ? "" : ",", farmer::json_quote(n).c_str(),
                 static_cast<unsigned long long>(a.count),
                 static_cast<long long>(a.total_ns),
                 static_cast<long long>(a.self_ns), a.quantile_ns(0.50),
                 a.quantile_ns(0.99));
    first = false;
  }
  std::fprintf(f,
               "\n],\n\"span_fields\": [\"id\", \"parent\", \"request\", "
               "\"name\", \"start_ns\", \"end_ns\"],\n\"spans\": [");
  first = true;
  for (const RawSpan& s : raw) {
    std::fprintf(f, "%s\n  [%llu, %llu, %lld, %s, %lld, %lld]",
                 first ? "" : ",", static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 s.request == kNoRequest ? -1LL
                                         : static_cast<long long>(s.request),
                 farmer::json_quote(names[s.name]).c_str(),
                 ns(s.start), ns(s.end));
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  if (std::fclose(f) != 0)
    throw std::runtime_error("cannot write span file " + path);
}

Name::Name(const char* name) {
  const std::lock_guard lock(g_mu);
  const auto it = std::find(g_names.begin(), g_names.end(), name);
  if (it != g_names.end()) {
    id_ = static_cast<std::uint16_t>(it - g_names.begin());
  } else {
    if (g_names.size() == kMaxNames)
      throw std::length_error("too many span names");
    id_ = static_cast<std::uint16_t>(g_names.size());
    g_names.emplace_back(name);
  }
}

}  // namespace spans

Span::Span(const spans::Name& name, std::uint64_t request) noexcept
    : active_(spans::enabled()) {
  if (!active_) return;
  ThreadLog& log = this_log();
  log.stack.push_back(OpenSpan{name.id(),
                               (log.thread_index << 40) | log.next_seq++,
                               request, ticks(), 0});
}

Span::~Span() {
  if (!active_) return;
  const std::uint64_t end = ticks();
  ThreadLog& log = this_log();
  const OpenSpan o = log.stack.back();
  log.stack.pop_back();
  const std::uint64_t dur = end - o.start;
  std::uint64_t parent = 0;
  if (!log.stack.empty()) {
    log.stack.back().child += dur;
    parent = log.stack.back().id;
  }
  Agg& a = log.agg[o.name];
  if (!a.durations) a.durations = std::make_unique<Histogram>();
  a.durations->record(dur);
  ++a.count;
  a.total += dur;
  a.self += dur - std::min(dur, o.child);
  if (log.raw.size() < kRawPerThread)
    log.raw.push_back(RawSpan{o.id, parent, o.request, o.start, end, o.name});
}

}  // namespace farmbench
