// Scan insertion, the full-scan view, PODEM and the ATPG drivers.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <random>
#include <span>
#include <vector>

#include "analyze/scoap.hpp"
#include "atpg/atpg.hpp"
#include "atpg/podem.hpp"
#include "fault/comb_fsim.hpp"
#include "fixtures.hpp"
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

/// One PODEM outcome: the test (if any), the backtracks it took and whether
/// a search budget ran out.
struct PodemOutcome {
  std::optional<std::vector<Tv>> test;
  std::size_t backtracks = 0;
  bool aborted = false;
  bool operator==(const PodemOutcome&) const = default;
};

PodemOutcome runPodem(Podem& podem, const Fault& f) {
  PodemOutcome o;
  o.test = podem.generate(f);
  o.backtracks = podem.backtracksUsed();
  o.aborted = podem.lastAborted();
  return o;
}

/// Every target's outcome folded into one FNV-1a-64 digest (found or not,
/// each Tv of the test, backtracks, aborted), plus the plain totals.
struct PodemDigest {
  std::uint64_t hash = 0xCBF29CE484222325ull;
  std::size_t targets = 0;
  std::size_t tests = 0;
  std::size_t aborted = 0;
  std::size_t backtracks = 0;

  void fold(std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      hash ^= (v >> (8 * i)) & 0xFFu;
      hash *= 0x100000001B3ull;
    }
  }
  void add(const PodemOutcome& o) {
    ++targets;
    tests += o.test.has_value() ? 1 : 0;
    aborted += o.aborted ? 1 : 0;
    backtracks += o.backtracks;
    fold(o.test.has_value() ? 1 : 0, 1);
    if (o.test.has_value()) {
      for (const Tv v : *o.test) fold(static_cast<std::uint8_t>(v), 1);
    }
    fold(o.backtracks, 8);
    fold(o.aborted ? 1 : 0, 1);
  }
};

/// One Podem over every `stride`-th fault, unguided or SCOAP-guided.
PodemDigest digestPodem(const Netlist& nl, std::span<const NetId> inputs,
                        std::span<const NetId> observed,
                        std::span<const Fault> faults, int limit,
                        std::size_t stride, bool scoap) {
  Podem podem(nl, inputs, observed, limit);
  ScoapScores scores;
  if (scoap) {
    scores = computeScoap(nl, observed);
    podem.setScoap(&scores);
  }
  PodemDigest d;
  for (std::size_t i = 0; i < faults.size(); i += stride) {
    d.add(runPodem(podem, faults[i]));
  }
  return d;
}

struct ScanCase {
  Netlist scanned;
  ScanView view;
  std::vector<Fault> faults;
};

ScanCase scanCase(const Netlist& module, const std::vector<int>& chains) {
  ScanCase c{buildScannedModule(module, chains), {}, {}};
  c.view = makeScanView(c.scanned, chains);
  c.faults = enumerateStuckAt(c.scanned).faults;
  return c;
}

TEST(Podem, SearchDigestsArePinned) {
  // Every outcome of the search, folded per input. The digests were recorded
  // with the engine that re-simulated both planes after every decision; an
  // implication change may alter how values are computed, never which
  // decisions, tests, backtracks or verdicts the search reaches.
  struct Pinned {
    std::uint64_t bn, cu, cu_deep, cn, random;
  };
  const Pinned kUnguided{0xB58AE3CADA593EF3ull, 0x0181741908918A5Cull,
                         0x354DBC013AFEF186ull, 0xD45986DBBA5C1E7Aull,
                         0x90E2019084FCBEEEull};
  const Pinned kScoap{0xFD8C5EB445DF8BF1ull, 0x92B552F2E23E253Bull,
                      0x56D8C96F44198E05ull, 0x67AAF6C5D67DB4A6ull,
                      0xE6FB71759FE0F913ull};
  const ScanCase bn = scanCase(ldpc::buildBitNode(), {});
  const ScanCase cu = scanCase(ldpc::buildControlUnit(), {14, 28});
  const ScanCase cn = scanCase(ldpc::buildCheckNode(), {});
  for (const bool scoap : {false, true}) {
    SCOPED_TRACE(scoap ? "scoap" : "unguided");
    const Pinned& want = scoap ? kScoap : kUnguided;
    const auto digest = [&](const ScanCase& c, int limit, std::size_t stride) {
      return digestPodem(c.scanned, c.view.inputs, c.view.observed, c.faults,
                         limit, stride, scoap);
    };
    const PodemDigest dbn = digest(bn, 24, 1);
    const PodemDigest dcu = digest(cu, 24, 1);
    EXPECT_EQ(dbn.hash, want.bn);
    EXPECT_EQ(dcu.hash, want.cu);
    EXPECT_EQ(digest(cu, 4096, 23).hash, want.cu_deep);
    EXPECT_EQ(digest(cn, 24, 97).hash, want.cn);
    PodemDigest random;
    for (std::uint64_t seed = 0; seed < 24; ++seed) {
      const Netlist nl = fixtures::randomComb(seed, 10, 60);
      random.fold(digestPodem(nl, nl.primaryInputs(), nl.primaryOutputs(),
                              enumerateStuckAt(nl).faults, 64, 1, scoap)
                      .hash,
                  8);
    }
    EXPECT_EQ(random.hash, want.random);
    if (!scoap) {
      // The plain totals over every fault at limit 24.
      EXPECT_EQ(dbn.targets, 6911u);
      EXPECT_EQ(dbn.tests, 3377u);
      EXPECT_EQ(dbn.aborted, 1474u);
      EXPECT_EQ(dbn.backtracks, 49016u);
      EXPECT_EQ(dcu.targets, 2948u);
      EXPECT_EQ(dcu.tests, 1321u);
      EXPECT_EQ(dcu.aborted, 402u);
      EXPECT_EQ(dcu.backtracks, 16396u);
    }
  }
}

TEST(Podem, OutcomesDoNotDependOnTargetOrder) {
  // A search that returns with a test, out of budget mid-backtrack, or out of
  // decisions must leave nothing behind that the next target sees: forward
  // and backward sweeps of one instance match a fresh instance per fault.
  const ScanCase cu = scanCase(ldpc::buildControlUnit(), {14, 28});
  std::vector<Fault> faults;
  for (std::size_t i = 0; i < cu.faults.size(); i += 11) {
    faults.push_back(cu.faults[i]);
  }
  std::vector<PodemOutcome> fresh;
  for (const Fault& f : faults) {
    Podem podem(cu.scanned, cu.view.inputs, cu.view.observed);
    fresh.push_back(runPodem(podem, f));
  }
  Podem shared(cu.scanned, cu.view.inputs, cu.view.observed);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    EXPECT_EQ(runPodem(shared, faults[i]), fresh[i]) << "forward " << i;
  }
  for (std::size_t i = faults.size(); i-- > 0;) {
    EXPECT_EQ(runPodem(shared, faults[i]), fresh[i]) << "backward " << i;
  }
  std::size_t found = 0;
  std::size_t aborted = 0;
  std::size_t untestable = 0;
  for (const PodemOutcome& o : fresh) {
    found += o.test.has_value() ? 1 : 0;
    aborted += o.aborted ? 1 : 0;
    untestable += !o.test.has_value() && !o.aborted ? 1 : 0;
  }
  EXPECT_GT(found, 0u);
  EXPECT_GT(aborted, 0u);
  EXPECT_GT(untestable, 0u);
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
