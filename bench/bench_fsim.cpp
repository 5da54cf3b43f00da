// Fault-simulation kernel throughput: serial engines vs ParallelFaultSim,
// and the wide-lane (W x 64 pattern) comb kernel sweep, on the Table 3
// BIST workload. Emits BENCH_fsim.json (current directory) so the
// patterns/sec trajectory is tracked from PR to PR.
//
// Metrics: patterns_per_sec counts applied stimulus patterns per second of
// wall time; mfault_patterns_per_sec counts fault x pattern grading work
// (faults * cycles / seconds / 1e6), the throughput that fault dropping,
// threading and lane widening actually scale. Every row is the median (and
// min) of `repeats` runs — single-shot timings on shared runners are noise,
// not measurements. Before any wide-lane row is reported its results are
// checked byte-identical to the 64-lane reference.
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "case_study.hpp"
#include "fault/backend.hpp"
#include "fault/comb_fsim.hpp"
#include "fault/fault.hpp"
#include "fault/lane.hpp"
#include "fault/parallel_fsim.hpp"
#include "fault/seq_fsim.hpp"
#include "scan/scan.hpp"

using namespace corebist;
using namespace corebist::bench;

namespace {

struct Measurement {
  std::string engine;
  int threads = 1;
  int lane_words = 0;  // 0 => not a lane-parallel engine (fault-parallel)
  Timing t;
  std::size_t faults = 0;
  int cycles = 0;
  std::size_t detected = 0;

  [[nodiscard]] double patternsPerSec() const {
    return t.median > 0 ? static_cast<double>(cycles) / t.median : 0.0;
  }
  [[nodiscard]] double mfaultPatternsPerSec() const {
    return t.median > 0 ? static_cast<double>(faults) *
                              static_cast<double>(cycles) / t.median / 1e6
                        : 0.0;
  }
};

void printRow(const Measurement& m) {
  std::printf("  %-11s %d thr  %d lw  %7.3fs med (%7.3fs min)  "
              "%10.0f patterns/s  %8.2f Mfault-patterns/s  (%zu detected)\n",
              m.engine.c_str(), m.threads, m.lane_words, m.t.median, m.t.min,
              m.patternsPerSec(), m.mfaultPatternsPerSec(), m.detected);
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = quickMode(argc, argv);
  printHeader("Fault-simulation kernel throughput (BENCH_fsim.json)");
  CaseStudy cs;

  const int repeats = quick ? 3 : 5;
  const int cycles = quick ? 256 : 1024;
  const int comb_cycles = quick ? 1024 : 4096;
  // CHECK_NODE dominates wall time; quick mode keeps the two small modules.
  struct Slot {
    int slot;
    std::vector<int> chains;  // scan-chain partition for the comb view
  };
  std::vector<Slot> slots = {{cs.m_bn, {}}, {cs.m_cu, {14, 28}}};
  if (!quick) slots.push_back({cs.m_cn, {}});

  std::vector<Measurement> rows;
  bool wide_identical = true;
  for (const Slot& sl : slots) {
    const Netlist& nl = cs.module(sl.slot);
    const FaultUniverse u = enumerateStuckAt(nl);
    const auto stim = cs.engine.stimulus(sl.slot, cycles);
    const CyclePatternSource patterns(stim, nl.primaryInputs().size());
    FaultSimOptions o;
    o.cycles = cycles;

    std::printf("\n%s: %zu faults, %d cycles (sequential at-speed view)\n",
                nl.name().c_str(), u.faults.size(), cycles);
    {
      SeqFaultSim serial(nl);
      std::size_t detected = 0;
      const Timing t = timeRepeats(repeats, [&] {
        detected = serial.run(u.faults, stim, o).detected;
      });
      rows.push_back(
          {"seq-serial", 1, 0, t, u.faults.size(), cycles, detected});
      printRow(rows.back());
    }
    for (const int threads : {1, 2, 4, 8}) {
      ParallelFsimOptions popts;
      popts.num_threads = threads;
      ParallelFaultSim psim(SeqFaultSim{nl}, popts);
      std::size_t detected = 0;
      const Timing t = timeRepeats(repeats, [&] {
        detected = psim.run(u.faults, patterns, o).detected;
      });
      rows.push_back(
          {"seq-parallel", threads, 0, t, u.faults.size(), cycles, detected});
      printRow(rows.back());
    }

    // Backend x lane-width cross on the full-scan comb view of the same
    // module: the same stuck-at grading the ATPG bootstrap and dictionary
    // flows run, on every execution backend (serial engine, thread-sharded
    // ParallelFaultSim, fork-sharded ProcessFaultSim) at every linked lane
    // width. Every cell is checked byte-identical to the serial 64-lane
    // reference before being reported — a diverging cell fails the bench.
    const Netlist scanned = buildScannedModule(nl, sl.chains);
    const ScanView view = makeScanView(scanned, sl.chains);
    const FaultUniverse su = enumerateStuckAt(scanned);
    const RandomPatternSource comb_patterns(0xB15D ^ sl.slot,
                                            view.inputs.size(), comb_cycles);
    FaultSimOptions co;
    co.cycles = comb_cycles;
    co.prepass_cycles = 0;
    // Full-length grading: mfault_patterns_per_sec divides faults * cycles
    // by wall time, which is only the real work when no fault drops early.
    // (Dropping campaigns are covered by the seq rows above; dictionary and
    // diagnosis flows run the comb kernel full-length exactly like this.)
    co.drop_detected = false;
    std::printf("%s: %zu faults, %d patterns (full-scan comb view, "
                "backend x lane sweep)\n",
                scanned.name().c_str(), su.faults.size(), comb_cycles);
    FaultSimResult ref;
    for (const FsimBackend backend :
         {FsimBackend::kSerial, FsimBackend::kThreaded,
          FsimBackend::kProcess}) {
      for (const int lane_words : {1, 2, 4, 8}) {
        FsimBackendOptions bopts;
        bopts.backend = backend;
        bopts.lane_words = lane_words;
        bopts.num_workers = 2;
        const auto fsim =
            makeCombFaultSim(scanned, view.inputs, view.observed, bopts);
        FaultSimResult r;
        const Timing t = timeRepeats(
            repeats, [&] { r = fsim->run(su.faults, comb_patterns, co); });
        const bool is_ref =
            backend == FsimBackend::kSerial && lane_words == 1;
        if (is_ref) {
          ref = r;
        } else if (r.first_detect != ref.first_detect ||
                   r.detected != ref.detected ||
                   r.patterns_applied != ref.patterns_applied) {
          std::fprintf(stderr,
                       "FATAL: %s backend at %d lanes diverged from the "
                       "serial 64-lane reference on %s\n",
                       fsimBackendName(backend), 64 * lane_words,
                       scanned.name().c_str());
          wide_identical = false;
        }
        const int workers = backend == FsimBackend::kSerial ? 1 : 2;
        rows.push_back({std::string("comb-") + fsimBackendName(backend),
                        workers, lane_words, t, su.faults.size(), comb_cycles,
                        r.detected});
        printRow(rows.back());
      }
    }
  }
  if (!wide_identical) return 1;

  // Unarmed resilient-supervisor overhead vs the plain process backend on
  // one representative module: same fleet size, same shards, no failpoint
  // armed — the ratio keeps the "zero-cost when unarmed" claim honest from
  // PR to PR. Both results are checked byte-identical to each other first.
  double resilient_overhead = 0.0;
  {
    const Netlist& nl = cs.module(cs.m_cu);
    const Netlist scanned = buildScannedModule(nl, {14, 28});
    const ScanView view = makeScanView(scanned, {14, 28});
    const FaultUniverse su = enumerateStuckAt(scanned);
    const RandomPatternSource comb_patterns(0xE51, view.inputs.size(),
                                            comb_cycles);
    FaultSimOptions co;
    co.cycles = comb_cycles;
    co.prepass_cycles = 0;
    co.drop_detected = false;
    std::printf("\n%s: resilient supervisor overhead (unarmed) vs process\n",
                scanned.name().c_str());
    FaultSimResult results[2];
    for (const FsimBackend backend :
         {FsimBackend::kProcess, FsimBackend::kResilient}) {
      FsimBackendOptions bopts;
      bopts.backend = backend;
      bopts.num_workers = 2;
      const auto fsim =
          makeCombFaultSim(scanned, view.inputs, view.observed, bopts);
      FaultSimResult& r = results[backend == FsimBackend::kResilient ? 1 : 0];
      const Timing t = timeRepeats(
          repeats, [&] { r = fsim->run(su.faults, comb_patterns, co); });
      rows.push_back({std::string("overhead-") + fsimBackendName(backend), 2,
                      0, t, su.faults.size(), comb_cycles, r.detected});
      printRow(rows.back());
      if (backend == FsimBackend::kProcess) {
        resilient_overhead = t.median;
      } else if (t.median > 0 && resilient_overhead > 0) {
        resilient_overhead = t.median / resilient_overhead;
      }
    }
    if (results[0].first_detect != results[1].first_detect ||
        results[0].detected != results[1].detected ||
        results[0].patterns_applied != results[1].patterns_applied) {
      std::fprintf(stderr, "FATAL: resilient backend diverged from process "
                           "on %s\n",
                   scanned.name().c_str());
      return 1;
    }
  }

  // Aggregate speedups over summed median wall time (same work per row).
  double seq_serial_s = 0.0;
  double seq_par4_s = 0.0;
  double comb_w1_s = 0.0;
  double comb_wide_s = 0.0;
  for (const auto& r : rows) {
    if (r.engine == "seq-serial") seq_serial_s += r.t.median;
    if (r.engine == "seq-parallel" && r.threads == 4) {
      seq_par4_s += r.t.median;
    }
    if (r.engine == "comb-serial" && r.lane_words == 1) {
      comb_w1_s += r.t.median;
    }
    if (r.engine == "comb-serial" && r.lane_words == kLaneWords) {
      comb_wide_s += r.t.median;
    }
  }
  const double speedup4 = seq_par4_s > 0 ? seq_serial_s / seq_par4_s : 0.0;
  const double wide_speedup = comb_wide_s > 0 ? comb_w1_s / comb_wide_s : 0.0;

  JsonWriter w = benchJson(
      "table3 BIST stuck-at, " + std::to_string(cycles) + " cycles (seq) / " +
          std::to_string(comb_cycles) + " patterns (comb)",
      quick, repeats);
  w.field("speedup_4t_vs_serial", speedup4, 3)
      .field("wide_speedup_vs_64lane", wide_speedup, 3)
      .field("resilient_overhead_vs_process", resilient_overhead, 3)
      .key("results")
      .beginArray();
  for (const Measurement& r : rows) {
    w.beginObject()
        .field("engine", r.engine)
        .field("threads", r.threads)
        .field("lane_words", r.lane_words)
        .field("faults", r.faults)
        .field("cycles", r.cycles)
        .field("seconds_median", r.t.median, 4)
        .field("seconds_min", r.t.min, 4)
        .field("patterns_per_sec", r.patternsPerSec(), 1)
        .field("mfault_patterns_per_sec", r.mfaultPatternsPerSec(), 3)
        .field("detected", r.detected)
        .endObject();
  }
  w.endArray().endObject();
  if (!writeBenchJson("BENCH_fsim.json", w)) return 1;

  std::printf("\nspeedup at 4 threads vs serial (seq): %.2fx\n"
              "wide %d-lane kernel vs 64-lane (comb): %.2fx\n"
              "resilient overhead vs process (unarmed): %.2fx\n"
              "(hardware_concurrency=%u, repeats=%d)\n-> BENCH_fsim.json\n",
              speedup4, 64 * kLaneWords, wide_speedup, resilient_overhead,
              std::thread::hardware_concurrency(), repeats);
  return 0;
}
