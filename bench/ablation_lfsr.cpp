// Ablation: ALFSR width / polynomial (paper §3.2: "modify the ALFSR or
// MISRs structure" is one of the coverage-recovery actions).
#include <cstdio>

#include "case_study.hpp"
#include "fault/fault.hpp"
#include "fault/seq_fsim.hpp"

using namespace corebist;
using namespace corebist::bench;

int main(int argc, char** argv) {
  const bool quick = quickMode(argc, argv);
  printHeader("Ablation: ALFSR width and polynomial (CONTROL_UNIT)");
  CaseStudy cs;
  const int cycles = quick ? 256 : 2048;
  const FaultUniverse u = enumerateStuckAt(cs.cu);

  std::printf("\n%d patterns, %zu faults\n", cycles, u.faults.size());
  std::printf("  %-28s %10s\n", "ALFSR", "FC");
  for (const int width : {8, 12, 16, 20, 24, 28}) {
    BistEngineConfig cfg;
    cfg.lfsr_width = width;
    BistEngine engine(cfg);
    const int m = engine.attachModule(cs.cu);
    SeqFaultSim fsim(cs.cu);
    FaultSimOptions o;
    o.cycles = cycles;
    const auto r = fsim.run(u.faults, engine.stimulus(m, cycles), o);
    std::printf("  %2d-bit primitive poly %15.2f%%%s\n", width, r.coverage(),
                width == 20 ? "   <- case study" : "");
  }

  // Non-primitive (short-period) feedback as a cautionary row.
  {
    BistEngineConfig cfg;
    cfg.lfsr_width = 20;
    cfg.lfsr_taps = {19, 9};  // x^20 + x^10 + 1: factorable, short cycles
    BistEngine engine(cfg);
    const int m = engine.attachModule(cs.cu);
    SeqFaultSim fsim(cs.cu);
    FaultSimOptions o;
    o.cycles = cycles;
    const auto r = fsim.run(u.faults, engine.stimulus(m, cycles), o);
    std::printf("  20-bit NON-primitive taps %11.2f%%   <- short period "
                "hurts\n", r.coverage());
  }
  return 0;
}
