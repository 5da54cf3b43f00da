// Batched ATPG throughput: the Table 3 full-scan drivers (random bootstrap
// + PODEM top-up batches for stuck-at, LOS pair batches for transition),
// all candidate grading through FaultSim::run. Emits BENCH_atpg.json
// (current directory) so patterns/sec and the PODEM-call economy are
// tracked from PR to PR.
//
// Metrics: patterns_per_sec counts emitted test patterns per second of
// median wall time (generation + batch grading); podem_calls counts PODEM
// invocations — the term that dominates once random coverage plateaus, and
// the one batch grading shrinks by dropping collateral detections across
// the whole batch before the next target is chosen. The thread sweep
// re-runs batch grading sharded across a ParallelFaultSim and (in --quick
// CI mode, where the CPU budget never binds) exits nonzero if any outcome
// field diverges from the serial run.
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "atpg/atpg.hpp"
#include "case_study.hpp"
#include "fault/comb_fsim.hpp"
#include "fault/fault.hpp"
#include "scan/scan.hpp"

using namespace corebist;
using namespace corebist::bench;

namespace {

struct Row {
  std::string module;
  std::string fault_type;  // "SAF" | "TDF"
  int threads = 1;
  std::string mode = "base";  // "base" | "scoap" | "collapse"
  Timing t;
  FullScanAtpgResult res;

  [[nodiscard]] double patternsPerSec() const {
    return t.median > 0 ? static_cast<double>(res.patterns) / t.median : 0.0;
  }
};

void printRow(const Row& r) {
  std::printf("  %-13s %-4s %-8s %d thr  %7.3fs med (%7.3fs min)  "
              "FC %6.2f%%  %6zu patterns  %8.0f patterns/s  "
              "%6zu podem calls  %7zu backtracks  %4zu batches  "
              "%5zu aborted  %5zu collapsed\n",
              r.module.c_str(), r.fault_type.c_str(), r.mode.c_str(),
              r.threads, r.t.median, r.t.min, r.res.coverage(),
              r.res.patterns, r.patternsPerSec(), r.res.podem_calls,
              r.res.backtracks, r.res.batches, r.res.aborted,
              r.res.collapsed_faults);
}

bool sameOutcome(const FullScanAtpgResult& a, const FullScanAtpgResult& b) {
  return a.detected == b.detected && a.aborted == b.aborted &&
         a.patterns == b.patterns && a.podem_calls == b.podem_calls &&
         a.batches == b.batches && a.test_cycles == b.test_cycles;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = quickMode(argc, argv);
  printHeader("Batched full-scan ATPG throughput (BENCH_atpg.json)");
  CaseStudy cs;

  const int repeats = quick ? 3 : 5;
  struct Cfg {
    int slot;
    std::vector<int> chains;
  };
  std::vector<Cfg> cfgs = {{cs.m_bn, {}}, {cs.m_cu, {14, 28}}};
  if (!quick) cfgs.push_back({cs.m_cn, {}});

  FullScanAtpgOptions base;
  base.max_random_blocks = quick ? 8 : 48;
  base.random_stall_blocks = quick ? 3 : 6;
  // The quick (CI) budget must never bind, no matter how loaded the
  // runner: outcomes stay a pure function of the seed, which is what lets
  // the thread sweep hard-gate equality. Full mode keeps a real budget and
  // reports divergence as a warning only.
  base.podem_budget_seconds = quick ? 1e9 : 60.0;

  std::vector<Row> rows;
  bool thread_sweep_identical = true;
  bool heuristics_ok = true;
  for (const Cfg& cfg : cfgs) {
    const Netlist& nl = cs.module(cfg.slot);
    const Netlist scanned = buildScannedModule(nl, cfg.chains);
    const ScanView view = makeScanView(scanned, cfg.chains);
    const FaultUniverse u = enumerateStuckAt(scanned);
    const auto tdf = toTransitionFaults(u.faults);
    std::printf("\n%s: %zu stuck-at / %zu transition faults "
                "(full-scan view, batch %d)\n",
                scanned.name().c_str(), u.faults.size(), tdf.size(),
                base.batch_patterns);

    FullScanAtpgResult saf_serial;
    FullScanAtpgResult tdf_serial;
    for (const int threads : {1, 2}) {
      FullScanAtpgOptions o = base;
      o.num_threads = threads;
      Row saf{scanned.name(), "SAF", threads, "base", {}, {}};
      saf.t = timeRepeats(repeats, [&] {
        saf.res = runFullScanAtpg(scanned, view, u.faults, o);
      });
      rows.push_back(saf);
      printRow(rows.back());
      Row tr{scanned.name(), "TDF", threads, "base", {}, {}};
      tr.t = timeRepeats(repeats, [&] {
        tr.res = runFullScanTransition(scanned, view, tdf, o);
      });
      rows.push_back(tr);
      printRow(rows.back());
      if (threads == 1) {
        saf_serial = saf.res;
        tdf_serial = tr.res;
      } else if (!sameOutcome(saf_serial, saf.res) ||
                 !sameOutcome(tdf_serial, tr.res)) {
        std::fprintf(stderr,
                     "%s: %d-thread batch grading diverged from the serial "
                     "outcome on %s\n",
                     quick ? "FATAL" : "warning", threads,
                     scanned.name().c_str());
        thread_sweep_identical = false;
      }
    }

    // PODEM economy sweep (CONTROL_UNIT only): same serial run with the
    // SCOAP objective-ordering heuristic and with equivalence-collapsed
    // targeting. Every undetected CONTROL_UNIT fault aborts (rather than
    // being proven redundant), so the backtrack budget binds on the hard
    // tail at any feasible limit and guided ordering can convert aborts
    // into detections; the hard gate is therefore coverage strictly
    // no-worse AND backtracks strictly reduced. Exact coverage *identity*
    // under guidance is gated where saturation is achievable — the
    // analyze_test PODEM suite, which proves the testable set identical
    // fault-by-fault at saturating limits.
    if (cfg.slot == cs.m_cu) {
      FullScanAtpgOptions ho = base;
      ho.num_threads = 1;
      ho.backtrack_limit = 4096;
      Row hb{scanned.name(), "SAF", 1, "base", {}, {}};
      hb.t = timeRepeats(repeats, [&] {
        hb.res = runFullScanAtpg(scanned, view, u.faults, ho);
      });
      rows.push_back(hb);
      printRow(rows.back());
      FullScanAtpgOptions so = ho;
      so.use_scoap = true;
      Row hs{scanned.name(), "SAF", 1, "scoap", {}, {}};
      hs.t = timeRepeats(repeats, [&] {
        hs.res = runFullScanAtpg(scanned, view, u.faults, so);
      });
      rows.push_back(hs);
      printRow(rows.back());
      FullScanAtpgOptions co = ho;
      co.collapse_faults = true;
      Row hc{scanned.name(), "SAF", 1, "collapse", {}, {}};
      hc.t = timeRepeats(repeats, [&] {
        hc.res = runFullScanAtpg(scanned, view, u.faults, co);
      });
      rows.push_back(hc);
      printRow(rows.back());
      if (hs.res.detected < hb.res.detected ||
          hs.res.backtracks >= hb.res.backtracks) {
        std::fprintf(stderr,
                     "%s: SCOAP-guided PODEM must not lose coverage "
                     "(%zu vs %zu detected) and must reduce the unguided "
                     "backtracks (%zu vs %zu) on %s\n",
                     quick ? "FATAL" : "warning", hs.res.detected,
                     hb.res.detected, hs.res.backtracks, hb.res.backtracks,
                     scanned.name().c_str());
        heuristics_ok = false;
      }
      if (hc.res.detected != hb.res.detected ||
          hc.res.collapsed_faults == 0 ||
          hc.res.podem_calls >= hb.res.podem_calls) {
        std::fprintf(stderr,
                     "%s: collapsed targeting must keep the detected set "
                     "(%zu vs %zu) while skipping targets (%zu skipped, "
                     "%zu vs %zu podem calls) on %s\n",
                     quick ? "FATAL" : "warning", hc.res.detected,
                     hb.res.detected, hc.res.collapsed_faults,
                     hc.res.podem_calls, hb.res.podem_calls,
                     scanned.name().c_str());
        heuristics_ok = false;
      }
    }
  }
  if (quick && (!thread_sweep_identical || !heuristics_ok)) return 1;

  JsonWriter w = benchJson(
      "table3 full-scan ATPG, batched FaultSim::run grading", quick, repeats);
  w.field("batch_patterns", base.batch_patterns)
      .field("thread_sweep_identical", thread_sweep_identical)
      .field("heuristics_ok", heuristics_ok)
      .key("results")
      .beginArray();
  for (const Row& r : rows) {
    w.beginObject()
        .field("module", r.module)
        .field("fault_type", r.fault_type)
        .field("threads", r.threads)
        .field("mode", r.mode)
        .field("faults", r.res.total_faults)
        .field("detected", r.res.detected)
        .field("coverage", r.res.coverage(), 3)
        .field("aborted", r.res.aborted)
        .field("patterns", r.res.patterns)
        .field("test_cycles", r.res.test_cycles)
        .field("podem_calls", r.res.podem_calls)
        .field("scoap_backtracks", r.res.backtracks)
        .field("collapsed_faults", r.res.collapsed_faults)
        .field("batches", r.res.batches)
        .field("seconds_median", r.t.median, 4)
        .field("seconds_min", r.t.min, 4)
        .field("patterns_per_sec", r.patternsPerSec(), 1)
        .endObject();
  }
  w.endArray().endObject();
  if (!writeBenchJson("BENCH_atpg.json", w)) return 1;

  std::printf("\n(hardware_concurrency=%u, repeats=%d, batch=%d)\n"
              "-> BENCH_atpg.json\n",
              std::thread::hardware_concurrency(), repeats,
              base.batch_patterns);
  return 0;
}
