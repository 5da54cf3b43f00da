// Cross-engine property tests: invariants that tie the independent
// implementations (combinational vs sequential fault simulation, MISR
// linearity, scan-view vs functional semantics) to each other.
#include <gtest/gtest.h>

#include <random>

#include "bist/misr.hpp"
#include "fault/comb_fsim.hpp"
#include "fault/fault.hpp"
#include "fault/seq_fsim.hpp"
#include "fixtures.hpp"
#include "netlist/builder.hpp"
#include "scan/scan.hpp"
#include "sim/seq_sim.hpp"

namespace corebist {
namespace {

using fixtures::randomComb;

class RandomCircuitProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(RandomCircuitProperty, CombAndSeqFaultSimAgreeOnCombCircuits) {
  // For a purely combinational circuit, a fault is detected by pattern p in
  // the PPSFP engine iff the sequential engine (which applies one pattern
  // per cycle) reports first detection at the first cycle carrying a
  // detecting pattern.
  const Netlist nl = randomComb(GetParam(), 10, 60);
  const FaultUniverse u = enumerateStuckAt(nl);
  const auto& pis = nl.primaryInputs();

  std::mt19937_64 rng(GetParam() ^ 0xFEED);
  const int cycles = 64;
  std::vector<std::uint64_t> stim(cycles);
  for (auto& w : stim) w = rng() & ((1u << pis.size()) - 1u);

  // Sequential run.
  SeqFaultSim sfsim(nl);
  FaultSimOptions so;
  so.cycles = cycles;
  so.prepass_cycles = 0;
  const auto seq = sfsim.run(u.faults, stim, so);

  // Combinational run with the same 64 vectors as one block.
  CombFaultSim cfsim(nl, pis, nl.primaryOutputs());
  PatternBlock blk;
  blk.inputs.resize(pis.size());
  for (int c = 0; c < cycles; ++c) {
    for (std::size_t j = 0; j < pis.size(); ++j) {
      if ((stim[static_cast<std::size_t>(c)] >> j) & 1u) {
        blk.inputs[j] |= std::uint64_t{1} << c;
      }
    }
  }
  cfsim.loadBlock(blk);
  for (std::size_t i = 0; i < u.faults.size(); ++i) {
    const auto det = cfsim.detect(u.faults[i]);
    if (det.none()) {
      EXPECT_EQ(seq.first_detect[i], -1) << describeFault(nl, u.faults[i]);
    } else {
      EXPECT_EQ(seq.first_detect[i], det.firstLane())
          << describeFault(nl, u.faults[i]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCircuitProperty,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

class MisrLinearity : public ::testing::TestWithParam<int> {};

TEST_P(MisrLinearity, SignatureIsLinearOverGf2) {
  // MISRs are linear: sig(x ^ y) == sig(x) ^ sig(y) for zero-initialized
  // registers. This is the algebraic basis of signature analysis.
  const int width = GetParam();
  std::mt19937_64 rng(static_cast<std::uint64_t>(width) * 77);
  for (int trial = 0; trial < 20; ++trial) {
    Misr ma(width);
    Misr mb(width);
    Misr mab(width);
    for (int c = 0; c < 100; ++c) {
      const std::uint64_t a = rng();
      const std::uint64_t bword = rng();
      ma.stepWide(a, 48);
      mb.stepWide(bword, 48);
      mab.stepWide(a ^ bword, 48);
    }
    EXPECT_EQ(mab.state(), ma.state() ^ mb.state());
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, MisrLinearity,
                         ::testing::Values(8, 12, 16, 20, 24));

TEST(ScanProperty, CaptureEqualsFunctionalStep) {
  // scan_en=0 on the scanned module is exactly one functional clock: load
  // any state through the chain, capture once, and the flop contents equal
  // the original module's next-state function.
  Netlist nl("m");
  Builder b(nl);
  const Bus x = b.input("x", 6);
  const Bus q = b.state("q", 6);
  b.connect(q, b.add(q, x));
  b.output("q", q);
  nl.validate();

  const Netlist scanned = buildScannedModule(nl);
  SeqSim sim(scanned);
  sim.reset();
  std::mt19937_64 rng(9);
  for (int trial = 0; trial < 30; ++trial) {
    const unsigned state = static_cast<unsigned>(rng() & 0x3F);
    const unsigned input = static_cast<unsigned>(rng() & 0x3F);
    // Shift the state in (MSB-first so cell 0 ends with bit 0).
    sim.comb().setBusBroadcast(scanned.findPort("scan_en")->bits, 1);
    sim.comb().setBusBroadcast(scanned.findPort("x")->bits, 0);
    for (int i = 5; i >= 0; --i) {
      sim.comb().setBusBroadcast(scanned.findPort("scan_in_0")->bits,
                                 (state >> i) & 1u);
      sim.step();
    }
    // One functional capture.
    sim.comb().setBusBroadcast(scanned.findPort("scan_en")->bits, 0);
    sim.comb().setBusBroadcast(scanned.findPort("x")->bits, input);
    sim.step();
    sim.evalComb();
    EXPECT_EQ(sim.comb().getBusLane(scanned.findPort("q")->bits, 0),
              (state + input) & 0x3Fu);
  }
}

TEST(FaultProperty, DetectionMasksAreSubsetsOfLaneMask) {
  const Netlist nl = randomComb(42, 8, 40);
  const FaultUniverse u = enumerateStuckAt(nl);
  CombFaultSim fsim(nl, nl.primaryInputs(), nl.primaryOutputs());
  PatternBlock blk;
  blk.inputs.assign(nl.primaryInputs().size(), 0);
  std::mt19937_64 rng(42);
  for (auto& w : blk.inputs) w = rng();
  blk.count = 17;  // partial block
  fsim.loadBlock(blk);
  for (const Fault& f : u.faults) {
    const auto det = fsim.detect(f);
    EXPECT_EQ(det.word(0) & ~blk.laneMask(), 0u);
    for (int wi = 1; wi < CombFaultSim::kWords; ++wi) {
      EXPECT_EQ(det.word(wi), 0u);
    }
  }
}

TEST(FaultProperty, SaFaultOnNetWithConstantValueIsUndetectable) {
  // A stuck-at equal to the only value a net ever takes cannot be detected.
  Netlist nl("t");
  Builder b(nl);
  const Bus x = b.input("x", 2);
  const NetId t = b.and2(x[0], b.not1(x[0]));  // always 0
  b.output("y", Bus{b.or2(t, x[1])});
  CombFaultSim fsim(nl, nl.primaryInputs(), nl.primaryOutputs());
  PatternBlock blk;
  blk.inputs = {0b0110, 0b1010};  // exhaustive on 2 inputs (4 lanes)
  blk.count = 4;
  fsim.loadBlock(blk);
  const Fault sa0{t, Fault::kNoGate, 0, FaultKind::kSa0};
  EXPECT_TRUE(fsim.detect(sa0).none());
  const Fault sa1{t, Fault::kNoGate, 0, FaultKind::kSa1};
  EXPECT_TRUE(fsim.detect(sa1).any());
}

}  // namespace
}  // namespace corebist
