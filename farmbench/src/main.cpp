// farmbench: the repository benchmark binary.
//
//   farmbench --workload mine|serve|mixed --seed N --seconds S --trace 0|1
//             --work DIR [--spans FILE] [--git-sha SHA] [--src-digest HEX]
//
// Runs one workload, checks its outputs, and prints METRIC / CHECK /
// FINGERPRINT / COUNTS lines (see farmbench/NOTES.md). run.py builds this
// binary and turns those lines into the benchmark's result line. Exits 1
// when an output check fails, 2 on a usage error.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "spans.hpp"

namespace {

using farmbench::Options;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "farmbench: %s\nusage: farmbench --workload mine|serve|mixed "
               "--seed N --seconds S --trace 0|1 --work DIR [--spans FILE] "
               "[--git-sha SHA] [--src-digest HEX]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    try {
      if (a == "--workload") o.workload = v;
      else if (a == "--seed") o.seed = std::stoull(v);
      else if (a == "--seconds") o.seconds = std::stod(v);
      else if (a == "--trace") o.trace = std::stoi(v) != 0;
      else if (a == "--work") o.work_dir = v;
      else if (a == "--spans") o.span_path = v;
      else if (a == "--git-sha") o.git_sha = v;
      else if (a == "--src-digest") o.src_digest = v;
      else usage("unknown argument " + a);
    } catch (const std::logic_error&) {
      usage("bad value for " + a + ": " + v);
    }
  }
  if (o.workload != "mine" && o.workload != "serve" && o.workload != "mixed")
    usage("--workload must be mine, serve or mixed");
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  if (o.work_dir.empty()) usage("--work is required");
  return o;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  return "unknown";
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  farmbench::Report rep;
  rep.fingerprint("workload", opt.workload);
  rep.fingerprint("seed", static_cast<double>(opt.seed));
  rep.fingerprint("seconds", opt.seconds);
  rep.fingerprint("traced", opt.trace ? 1.0 : 0.0);
  rep.fingerprint("nproc",
                  static_cast<double>(std::thread::hardware_concurrency()));
  rep.fingerprint("cpu_model", cpu_model());
  rep.fingerprint("compiler", FARMBENCH_COMPILER);
  rep.fingerprint("build_type", FARMBENCH_BUILD_TYPE);
  rep.fingerprint("git_sha", opt.git_sha.empty() ? "unknown" : opt.git_sha);
  rep.fingerprint("src_digest",
                  opt.src_digest.empty() ? "unknown" : opt.src_digest);

  namespace fs = std::filesystem;
  const std::string work =
      (fs::path(opt.work_dir) / ("run-" + std::to_string(::getpid())))
          .string();
  Options run = opt;
  run.work_dir = work;
  int code = 0;
  try {
    fs::create_directories(work);
    if (opt.workload == "mine") farmbench::run_mine(run, rep);
    else if (opt.workload == "serve") farmbench::run_serve(run, rep);
    else farmbench::run_mixed(run, rep);
    if (opt.trace && !opt.span_path.empty())
      farmbench::spans::write_json(opt.span_path,
                                   "\"fingerprint\": " + rep.fingerprint_json());
  } catch (const std::exception& e) {
    rep.fail();
    rep.check("no_exception", false, e.what());
  }
  std::error_code ec;
  fs::remove_all(work, ec);
  rep.print();
  if (!rep.correct()) code = 1;
  return code;
}
