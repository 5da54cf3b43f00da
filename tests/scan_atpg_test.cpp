// Scan insertion, the full-scan view, PODEM and the ATPG drivers.
#include <gtest/gtest.h>

#include <random>

#include "atpg/atpg.hpp"
#include "atpg/podem.hpp"
#include "fault/comb_fsim.hpp"
#include "ldpc/gatelevel.hpp"
#include "netlist/builder.hpp"
#include "scan/scan.hpp"
#include "sim/seq_sim.hpp"

namespace corebist {
namespace {

Netlist makeSeqModule() {
  // 8-bit accumulating datapath with a comparator: enough state and
  // random-resistant logic to exercise ATPG meaningfully.
  Netlist nl("seqmod");
  Builder b(nl);
  const Bus x = b.input("x", 8);
  const Bus en = b.input("en", 1);
  const Bus acc = b.state("acc", 8);
  b.connectEn(acc, b.add(acc, x), en[0]);
  b.output("acc", acc);
  b.output("hit", Bus{b.eqConst(acc, 0xA5)});
  nl.validate();
  return nl;
}

TEST(Scan, ViewShapesAndCycleModel) {
  const Netlist nl = makeSeqModule();
  const ScanView view = makeScanView(nl);
  EXPECT_EQ(view.chains.size(), 1u);
  EXPECT_EQ(view.longestChain(), 8);
  EXPECT_EQ(view.inputs.size(), 9u + 8u);    // PIs + PPIs
  EXPECT_EQ(view.observed.size(), 9u + 8u);  // POs + PPOs
  // patterns*(L+1)+L
  EXPECT_EQ(view.testCycles(10), 10u * 9u + 8u);
  EXPECT_EQ(view.testCyclesTransition(10), 10u * 10u + 8u);
}

TEST(Scan, ChainPartitioningLikeThePaper) {
  // CONTROL_UNIT: 42 cells in chains of 14 and 28.
  const Netlist cu = ldpc::buildControlUnit();
  const ScanView view = makeScanView(cu, {14, 28});
  ASSERT_EQ(view.chains.size(), 2u);
  EXPECT_EQ(view.chains[0].size(), 14u);
  EXPECT_EQ(view.chains[1].size(), 28u);
  EXPECT_EQ(view.longestChain(), 28);
  EXPECT_THROW(makeScanView(cu, {14, 27}), std::invalid_argument);
}

TEST(Scan, ScannedModuleShiftsLikeAChain) {
  const Netlist nl = makeSeqModule();
  const Netlist scanned = buildScannedModule(nl);
  // Fault universe grows: the scan muxes add sites (paper: 7,532 -> 7,836).
  EXPECT_GT(enumerateStuckAt(scanned).faults.size(),
            enumerateStuckAt(nl).faults.size());

  // Shift a pattern through scan_in and verify it appears in the flops.
  SeqSim sim(scanned);
  sim.reset();
  const Bus se = scanned.findPort("scan_en")->bits;
  const Bus si = scanned.findPort("scan_in_0")->bits;
  sim.comb().setBusBroadcast(scanned.findPort("x")->bits, 0);
  sim.comb().setBusBroadcast(scanned.findPort("en")->bits, 0);
  sim.comb().setBusBroadcast(se, 1);
  const unsigned pattern = 0xB7;
  for (int i = 7; i >= 0; --i) {
    sim.comb().setBusBroadcast(si, (pattern >> i) & 1u);
    sim.step();
  }
  sim.evalComb();
  EXPECT_EQ(sim.comb().getBusLane(scanned.findPort("acc")->bits, 0), pattern);
}

TEST(Podem, GeneratesTestsThatTheFaultSimulatorConfirms) {
  const Netlist nl = makeSeqModule();
  const Netlist scanned = buildScannedModule(nl);
  const ScanView view = makeScanView(nl);
  // Build the view against the scanned netlist's nets.
  const ScanView sview = [&] {
    ScanView v = makeScanView(scanned);
    return v;
  }();
  const FaultUniverse u = enumerateStuckAt(scanned);
  Podem podem(scanned, sview.inputs, sview.observed);
  CombFaultSim fsim(scanned, sview.inputs, sview.observed);
  std::mt19937_64 rng(9);
  int generated = 0;
  int confirmed = 0;
  for (std::size_t i = 0; i < u.faults.size(); i += 4) {
    const auto test = podem.generate(u.faults[i]);
    if (!test.has_value()) continue;
    ++generated;
    PatternBlock blk;
    blk.inputs.resize(sview.inputs.size());
    for (std::size_t j = 0; j < test->size(); ++j) {
      const bool bit =
          (*test)[j] == Tv::kX ? (rng() & 1u) != 0 : (*test)[j] == Tv::k1;
      blk.inputs[j] = broadcast(bit);
    }
    blk.count = 1;
    fsim.loadBlock(blk);
    if (fsim.detect(u.faults[i]).word(0) & 1u) ++confirmed;
  }
  EXPECT_GT(generated, 20);
  EXPECT_EQ(confirmed, generated)
      << "every PODEM test must be confirmed by fault simulation";
  (void)view;
}

TEST(FullScanAtpg, HighCoverageOnDatapathModule) {
  const Netlist nl = makeSeqModule();
  const Netlist scanned = buildScannedModule(nl);
  const ScanView view = makeScanView(scanned);
  const FaultUniverse u = enumerateStuckAt(scanned);
  FullScanAtpgOptions opts;
  opts.podem_budget_seconds = 5.0;
  const FullScanAtpgResult res =
      runFullScanAtpg(scanned, view, u.faults, opts);
  EXPECT_GT(res.coverage(), 95.0);
  EXPECT_GT(res.patterns, 0u);
  EXPECT_EQ(res.test_cycles, view.testCycles(res.patterns));
}

TEST(FullScanAtpg, TransitionCoverageBelowStuckAt) {
  const Netlist nl = makeSeqModule();
  const Netlist scanned = buildScannedModule(nl);
  const ScanView view = makeScanView(scanned);
  const FaultUniverse u = enumerateStuckAt(scanned);
  const auto tdf = toTransitionFaults(u.faults);
  FullScanAtpgOptions opts;
  opts.podem_budget_seconds = 5.0;
  const auto saf = runFullScanAtpg(scanned, view, u.faults, opts);
  const auto tdfr = runFullScanTransition(scanned, view, tdf, opts);
  EXPECT_LT(tdfr.coverage(), saf.coverage());
  EXPECT_GT(tdfr.coverage(), 40.0);
}

TEST(SeqAtpg, FindsFaultsWithoutScan) {
  const Netlist nl = makeSeqModule();
  const FaultUniverse u = enumerateStuckAt(nl);
  SeqAtpgOptions opts;
  opts.sequence_cycles = 1024;
  opts.candidates = 3;
  const SeqAtpgResult res = runSequentialAtpg(nl, u.faults, opts);
  EXPECT_GT(res.coverage(), 60.0);
  EXPECT_LE(res.effective_cycles,
            static_cast<std::size_t>(opts.sequence_cycles));
  EXPECT_FALSE(res.best_sequence.empty());
}

TEST(SeqAtpg, ResultsDoNotDependOnThreadCount) {
  // Candidates are graded on the calling thread at num_threads = 1 and
  // sharded over a threaded orchestrator above that; both must pick the
  // same sequence with the same detections.
  const Netlist nl = ldpc::buildControlUnit();
  const FaultUniverse u = enumerateStuckAt(nl);
  SeqAtpgOptions opts;
  opts.sequence_cycles = 4096;
  opts.candidates = 4;
  opts.num_threads = 1;
  const SeqAtpgResult serial = runSequentialAtpg(nl, u.faults, opts);
  opts.num_threads = 4;
  const SeqAtpgResult threaded = runSequentialAtpg(nl, u.faults, opts);
  EXPECT_GT(serial.detected, 0u);
  EXPECT_EQ(threaded.detected, serial.detected);
  EXPECT_EQ(threaded.effective_cycles, serial.effective_cycles);
  EXPECT_EQ(threaded.best_sequence, serial.best_sequence);
}

}  // namespace
}  // namespace corebist
