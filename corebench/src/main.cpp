// corebench: run one workload of the corebist benchmark.
//
//   corebench --workload <bist_qualify|atpg_fullscan|soc_floor>
//             [--seed N] [--seconds S] [--trace 0|1] [--out-dir DIR]
//
// Prints a human-readable block, a `corebench-record` line and, last, the
// result line (see report.hpp). Exit status: 0 when every operation passed
// its output checks, 1 when one failed, 2 on bad arguments or a failed
// set-up (no result line then). A traced run also writes its spans to
// DIR/spans-<workload>-<seed>.json.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "report.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "corebench: %s\nusage: corebench --workload "
               "<bist_qualify|atpg_fullscan|soc_floor> [--seed N] "
               "[--seconds S] [--trace 0|1] [--out-dir DIR]\n",
               why);
  return 2;
}

bool parseUnsigned(const std::string& s, unsigned long long& out) {
  if (s.empty() || s[0] == '-') return false;
  char* end = nullptr;
  out = std::strtoull(s.c_str(), &end, 10);
  return end != nullptr && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  corebench::Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    unsigned long long n = 0;
    if (arg == "--workload") {
      opts.workload = val;
    } else if (arg == "--seed") {
      if (!parseUnsigned(val, n)) return usage("--seed takes an integer");
      opts.seed = n;
    } else if (arg == "--seconds") {
      if (!parseUnsigned(val, n) || n < 1 || n > 3600) {
        return usage("--seconds takes an integer in [1, 3600]");
      }
      opts.seconds = static_cast<double>(n);
    } else if (arg == "--trace") {
      if (val != "0" && val != "1") return usage("--trace takes 0 or 1");
      opts.trace = val == "1";
    } else if (arg == "--out-dir") {
      opts.out_dir = val;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }

  void (*run)(const corebench::Options&, corebench::Report&,
              corebench::OpTally&, corebench::Tracer&) = nullptr;
  if (opts.workload == "bist_qualify") {
    run = corebench::runBistQualify;
  } else if (opts.workload == "atpg_fullscan") {
    run = corebench::runAtpgFullScan;
  } else if (opts.workload == "soc_floor") {
    run = corebench::runSocFloor;
  } else {
    return usage("unknown or missing --workload");
  }

  corebench::Tracer tracer(opts.trace);
  corebench::Report report(opts);
  corebench::OpTally tally;
  try {
    run(opts, report, tally, tracer);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "corebench: %s set-up failed: %s\n",
                 opts.workload.c_str(), e.what());
    return 2;
  }
  if (opts.trace) {
    const std::string path = opts.out_dir + "/spans-" + opts.workload + "-" +
                             std::to_string(opts.seed) + ".json";
    if (tracer.write(path)) {
      report.note("spans: " + std::to_string(tracer.size()) + " written to " +
                  path);
    } else {
      report.note("spans: could not write " + path);
    }
  }
  return report.print(tally, tracer) ? 0 : 1;
}
