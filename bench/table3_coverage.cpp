// Table 3: fault coverage of BIST vs sequential-ATPG vs full-scan patterns,
// stuck-at + transition-delay, with applied clock cycles and CPU time.
#include <algorithm>
#include <cstdio>

#include "analyze/scoap.hpp"
#include "atpg/atpg.hpp"
#include "case_study.hpp"
#include "fault/fault.hpp"
#include "fault/parallel_fsim.hpp"
#include "fault/seq_fsim.hpp"
#include "scan/scan.hpp"

using namespace corebist;
using namespace corebist::bench;

namespace {

struct PaperRow {
  int faults;
  double saf_fc;
  double tdf_fc;
  long cycles_saf;
  long cycles_tdf;
};

struct ModuleCfg {
  const char* name;
  int slot;
  std::vector<int> chains;
  PaperRow bist;
  PaperRow seq;
  PaperRow scan;
};

void printRow(const char* approach, const char* fault_type, std::size_t nf,
              double fc, std::size_t cycles, double cpu, int paper_faults,
              double paper_fc, long paper_cycles) {
  std::printf("  %-10s %-4s  faults %7zu  FC %6.2f%%  cycles %8zu  cpu %7.1fs"
              "   (paper: %6d / %5.1f%% / %ld)\n",
              approach, fault_type, nf, fc, cycles, cpu, paper_faults,
              paper_fc, paper_cycles);
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = quickMode(argc, argv);
  printHeader(quick ? "Table 3: fault coverage (QUICK smoke scale)"
                    : "Table 3: fault coverage (paper scale)");
  CaseStudy cs;

  const int bist_cycles = quick ? 512 : 4096;
  const int seq_cycles = quick ? 512 : 4096;

  const std::vector<ModuleCfg> mods = {
      {"BIT_NODE", cs.m_bn, {},
       {7532, 97.8, 95.6, 4096, 4096},
       {7532, 93.8, 84.3, 11340, 16580},
       {7836, 98.5, 91.2, 21248, 39168}},
      {"CHECK_NODE", cs.m_cn, {},
       {86104, 91.6, 90.7, 4096, 4096},
       {86104, 82.9, 76.4, 8374, 7844},
       {89412, 93.1, 87.1, 380064, 866272}},
      {"CONTROL_UNIT", cs.m_cu, {14, 28},
       {3038, 97.5, 95.3, 4096, 4096},
       {3038, 89.8, 84.0, 3060, 4860},
       {3216, 98.6, 91.3, 16965, 27405}},
  };

  for (const ModuleCfg& mc : mods) {
    const Netlist& nl = cs.module(mc.slot);
    std::printf("\n%s\n", mc.name);
    const FaultUniverse u = enumerateStuckAt(nl);
    const auto tdf = toTransitionFaults(u.faults);
    const auto stim = cs.engine.stimulus(mc.slot, bist_cycles);

    // ---- SCOAP static testability profile (analyze/scoap.hpp) ----
    // Observation model of the functional machine: primary outputs plus
    // flip-flop D nets (state capture). The profile explains the coverage
    // rows below before any pattern is applied: high median CC/CO predicts
    // the random-resistant faults PODEM has to chase.
    {
      std::vector<NetId> observed = nl.primaryOutputs();
      for (const Dff& ff : nl.dffs()) observed.push_back(ff.d);
      const ScoapScores sc = computeScoap(nl, observed);
      std::vector<std::uint32_t> cc;
      std::vector<std::uint32_t> co;
      std::size_t unobservable = 0;
      for (NetId n = 0; n < nl.numNets(); ++n) {
        if (sc.cc0[n] < kScoapInf) cc.push_back(sc.cc0[n]);
        if (sc.cc1[n] < kScoapInf) cc.push_back(sc.cc1[n]);
        if (sc.co[n] < kScoapInf) {
          co.push_back(sc.co[n]);
        } else {
          ++unobservable;
        }
      }
      std::sort(cc.begin(), cc.end());
      std::sort(co.begin(), co.end());
      const auto median = [](const std::vector<std::uint32_t>& v) {
        return v.empty() ? 0u : v[v.size() / 2];
      };
      std::printf("  %-10s       CC med %u max %u | CO med %u max %u | "
                  "%zu unobservable nets (%zu total)\n",
                  "SCOAP", median(cc), cc.empty() ? 0u : cc.back(),
                  median(co), co.empty() ? 0u : co.back(), unobservable,
                  nl.numNets());
    }

    // ---- BIST (threaded fault-simulation kernel) ----
    {
      ParallelFaultSim fsim(SeqFaultSim{nl});
      const CyclePatternSource patterns(stim, nl.primaryInputs().size());
      FaultSimOptions o;
      o.cycles = bist_cycles;
      Stopwatch sw;
      const auto saf = fsim.run(u.faults, patterns, o);
      const double t_saf = sw.seconds();
      Stopwatch sw2;
      const auto tdfr = fsim.run(tdf, patterns, o);
      const double t_tdf = sw2.seconds();
      printRow("BIST", "SAF", saf.total, saf.coverage(),
               static_cast<std::size_t>(bist_cycles), t_saf, mc.bist.faults,
               mc.bist.saf_fc, mc.bist.cycles_saf);
      printRow("BIST", "TDF", tdfr.total, tdfr.coverage(),
               static_cast<std::size_t>(bist_cycles), t_tdf, mc.bist.faults,
               mc.bist.tdf_fc, mc.bist.cycles_tdf);
    }

    // ---- BIST signature-qualified (MISR incl. aliasing) ----
    // The rows above count output-observed detections; the shipped BIST
    // only sees the MISR signature, so aliasing can hide a detected fault.
    // signatureCoverage re-grades the universe with the module's MISR
    // compaction model attached (full-length simulation, no dropping).
    if (!quick || mc.slot != cs.m_cn) {
      Stopwatch sw;
      const auto sig = cs.engine.signatureCoverage(
          mc.slot, u.faults, bist_cycles,
          FsimBackendOptions{.backend = FsimBackend::kThreaded});
      const double fc_sig = sig.misrCoverage();
      std::printf("  %-10s %-4s  faults %7zu  FC %6.2f%%  cycles %8d  "
                  "cpu %7.1fs   (aliasing loss %.2f pts off %.2f%% "
                  "output-observed)\n",
                  "BIST+MISR", "SAF", sig.total, fc_sig, bist_cycles,
                  sw.seconds(), sig.coverage() - fc_sig, sig.coverage());
    } else {
      std::printf("  %-10s %-4s  skipped in --quick (full-length sim of "
                  "%zu faults)\n", "BIST+MISR", "SAF", u.faults.size());
    }

    // ---- Sequential (simulation-based ATPG, functional inputs only) ----
    {
      SeqAtpgOptions o;
      o.sequence_cycles = seq_cycles;
      o.candidates = quick ? 1 : (mc.slot == cs.m_cn ? 1 : 2);
      Stopwatch sw;
      const auto saf = runSequentialAtpg(nl, u.faults, o);
      const double t_saf = sw.seconds();
      printRow("Sequential", "SAF", saf.total_faults, saf.coverage(),
               saf.effective_cycles, t_saf, mc.seq.faults, mc.seq.saf_fc,
               mc.seq.cycles_saf);
      // TDF: grade the chosen sequence against the transition list.
      ParallelFaultSim fsim(SeqFaultSim{nl});
      const CyclePatternSource seq_patterns(saf.best_sequence,
                                            nl.primaryInputs().size());
      FaultSimOptions fo;
      fo.cycles = seq_cycles;
      Stopwatch sw2;
      const auto tdfr = fsim.run(tdf, seq_patterns, fo);
      printRow("Sequential", "TDF", tdfr.total, tdfr.coverage(),
               saf.effective_cycles, sw2.seconds(), mc.seq.faults,
               mc.seq.tdf_fc, mc.seq.cycles_tdf);
    }

    // ---- Full scan ----
    {
      const Netlist scanned = buildScannedModule(nl, mc.chains);
      const ScanView view = makeScanView(scanned, mc.chains);
      const FaultUniverse su = enumerateStuckAt(scanned);
      const auto stdf = toTransitionFaults(su.faults);
      FullScanAtpgOptions o;
      o.podem_budget_seconds = quick ? 2.0 : (mc.slot == cs.m_cn ? 60.0 : 20.0);
      o.max_random_blocks = quick ? 8 : 48;
      // PODEM/LOS candidates are graded in batches through FaultSim::run;
      // shard the big CHECK_NODE fault list across grading workers (results
      // are byte-identical at any thread count).
      o.num_threads = mc.slot == cs.m_cn ? 4 : 1;
      const auto saf = runFullScanAtpg(scanned, view, su.faults, o);
      printRow("Full scan", "SAF", saf.total_faults, saf.coverage(),
               saf.test_cycles, saf.cpu_seconds, mc.scan.faults,
               mc.scan.saf_fc, mc.scan.cycles_saf);
      std::printf("  %-10s       %zu PODEM calls, %zu aborted, %zu batch "
                  "campaigns over %zu patterns\n",
                  "", saf.podem_calls, saf.aborted, saf.batches,
                  saf.patterns);
      const auto tdfr = runFullScanTransition(scanned, view, stdf, o);
      printRow("Full scan", "TDF", tdfr.total_faults, tdfr.coverage(),
               tdfr.test_cycles, tdfr.cpu_seconds, mc.scan.faults,
               mc.scan.tdf_fc, mc.scan.cycles_tdf);
    }
  }

  std::printf(
      "\nShape checks (paper's qualitative claims):\n"
      "  * BIST SAF coverage above sequential-ATPG, near full-scan\n"
      "  * BIST TDF coverage above full-scan TDF (at-speed advantage)\n"
      "  * BIST applies 1 pattern/clock: cycle counts orders below scan\n"
      "  * MISR-qualified FC trails output-observed FC only by a small\n"
      "    aliasing loss (the 16-bit MISR rarely masks a detection)\n");
  return 0;
}
