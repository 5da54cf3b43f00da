// Ablation: what the Constraint Generators buy (paper §3.1 claim that CGs
// provide "great improvements in terms of effectiveness of the applied
// test"). Three configurations on BIT_NODE and CONTROL_UNIT-scale logic:
//   full   - schedule CG on path_sel + biased CG on ctrl (the case study);
//   free   - everything pseudo-random from the ALFSR (no CGs);
//   hold   - path_sel held constant at the widest datapath.
#include <cstdio>

#include "case_study.hpp"
#include "fault/fault.hpp"
#include "fault/seq_fsim.hpp"

using namespace corebist;
using namespace corebist::bench;

namespace {
double coverageFor(const Netlist& nl, BistEngine& engine, int slot,
                   int cycles) {
  const FaultUniverse u = enumerateStuckAt(nl);
  const auto stim = engine.stimulus(slot, cycles);
  SeqFaultSim fsim(nl);
  FaultSimOptions o;
  o.cycles = cycles;
  return fsim.run(u.faults, stim, o).coverage();
}
}  // namespace

int main(int argc, char** argv) {
  const bool quick = quickMode(argc, argv);
  printHeader("Ablation: constraint-generator configurations (BIT_NODE)");
  CaseStudy cs;
  const int cycles = quick ? 256 : 2048;

  // full (case-study hookup)
  const double fc_full = coverageFor(cs.bn, cs.engine, cs.m_bn, cycles);

  // free: no CGs at all.
  BistEngine free_engine;
  const int m_free = free_engine.attachModule(cs.bn);
  const double fc_free = coverageFor(cs.bn, free_engine, m_free, cycles);

  // hold: path_sel frozen wide, ctrl biased as in the case study.
  BistEngine hold_engine;
  const int m_hold = hold_engine.attachModule(
      cs.bn, {{"path_sel", std::make_shared<HoldConstraint>(4, 0x0)},
              {"ctrl", cs.bn_ctrl_cg}});
  const double fc_hold = coverageFor(cs.bn, hold_engine, m_hold, cycles);

  std::printf("\nBIT_NODE, %d patterns:\n", cycles);
  std::printf("  %-34s FC %6.2f%%\n", "schedule CG + biased ctrl (paper)",
              fc_full);
  std::printf("  %-34s FC %6.2f%%\n", "path_sel held wide + biased ctrl",
              fc_hold);
  std::printf("  %-34s FC %6.2f%%\n", "no CG (free pseudo-random)", fc_free);
  std::printf("\nThe schedule CG visits the narrow datapath modes that the "
              "hold\nconfiguration never exercises, while free-random ctrl "
              "keeps wiping\narchitectural state: both lose coverage, which "
              "is the paper's argument\nfor Constraint Generators.\n");
  return 0;
}
