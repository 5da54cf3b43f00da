// BIST engine building blocks: ALFSR, MISR, constraint generators, control
// unit, engine assembly, and software/hardware cross-validation.
#include <gtest/gtest.h>

#include <bit>
#include <random>
#include <stdexcept>

#include "bist/constraint_gen.hpp"
#include "bist/control_unit.hpp"
#include "bist/engine.hpp"
#include "bist/engine_hw.hpp"
#include "bist/lfsr.hpp"
#include "bist/misr.hpp"
#include "ldpc/gatelevel.hpp"
#include "sim/seq_sim.hpp"

namespace corebist {
namespace {

class AlfsrPeriodTest : public ::testing::TestWithParam<int> {};

TEST_P(AlfsrPeriodTest, PrimitivePolynomialIsMaximalLength) {
  const int w = GetParam();
  Alfsr lfsr(w, 1);
  const std::uint64_t expect = (std::uint64_t{1} << w) - 1;
  EXPECT_EQ(lfsr.measuredPeriod(expect + 8), expect) << "width " << w;
}

INSTANTIATE_TEST_SUITE_P(Widths, AlfsrPeriodTest,
                         ::testing::Values(3, 4, 5, 6, 7, 8, 9, 10, 11, 12,
                                           13, 14, 15, 16, 17, 18, 20));

TEST(Alfsr, ZeroSeedIsRepaired) {
  Alfsr lfsr(8, 0);
  EXPECT_NE(lfsr.state(), 0u);
}

TEST(Alfsr, OutOfRangeWidthsThrowBeforeTheMaskShift) {
  // Custom taps skip primitiveTaps' own width check, so the constructor's
  // range check must run before the mask is shifted by the width.
  for (const int width : {-1, 1, 65}) {
    EXPECT_THROW(Alfsr(width, {0}, 1), std::invalid_argument)
        << "width " << width;
  }
}

TEST(Alfsr, StatesAreReasonablyBalanced) {
  Alfsr lfsr(20, 0xACE1);
  int ones = 0;
  const int cycles = 4096;
  for (int i = 0; i < cycles; ++i) {
    ones += std::popcount(lfsr.output() & 0xFFFFFu);
    lfsr.step();
  }
  const double density =
      static_cast<double>(ones) / (20.0 * static_cast<double>(cycles));
  EXPECT_GT(density, 0.45);
  EXPECT_LT(density, 0.55);
}

TEST(Alfsr, HardwareMatchesSoftware) {
  const int w = 12;
  const auto taps = primitiveTaps(w);
  Netlist nl("lfsr_hw");
  Builder b(nl);
  const NetId en = b.input("en", 1)[0];
  const NetId load = b.input("load", 1)[0];
  const AlfsrHw hw = buildAlfsrHw(b, w, taps, 0x5A5, en, load);
  b.output("state", hw.state);
  nl.validate();

  SeqSim sim(nl);
  sim.reset();
  // Load the seed.
  sim.comb().setBusBroadcast(Bus{en}, 0);
  sim.comb().setBusBroadcast(Bus{load}, 1);
  sim.step();
  Alfsr sw(w, taps, 0x5A5);
  sim.comb().setBusBroadcast(Bus{load}, 0);
  sim.comb().setBusBroadcast(Bus{en}, 1);
  for (int c = 0; c < 500; ++c) {
    sim.evalComb();
    EXPECT_EQ(sim.comb().getBusLane(nl.findPort("state")->bits, 0),
              sw.output())
        << "cycle " << c;
    sim.clockEdge();
    sw.step();
  }
}

TEST(Misr, DistinctStreamsGiveDistinctSignatures) {
  Misr a(16);
  Misr c(16);
  for (int i = 0; i < 200; ++i) {
    a.step(static_cast<std::uint64_t>(i * 37) & 0xFFFF);
    c.step(static_cast<std::uint64_t>(i * 37 + (i == 107)) & 0xFFFF);
  }
  EXPECT_NE(a.state(), c.state());
}

TEST(Misr, OrderSensitivity) {
  Misr a(16);
  Misr c(16);
  a.step(1);
  a.step(2);
  c.step(2);
  c.step(1);
  EXPECT_NE(a.state(), c.state());
}

TEST(Misr, WideFoldCascade) {
  Misr a(16);
  a.stepWide(0x00010001ull, 32);  // bits 0 and 16 fold to tap 0 -> cancel
  EXPECT_EQ(a.state(), 0u);
  Misr c(16);
  c.stepWide(0x00010000ull, 32);
  EXPECT_NE(c.state(), 0u);
}

TEST(Misr, HardwareMatchesSoftware) {
  Netlist nl("misr_hw");
  Builder b(nl);
  const Bus in = b.input("in", 24);  // wider than the MISR: exercises folding
  const NetId en = b.input("en", 1)[0];
  const NetId clr = b.input("clr", 1)[0];
  const MisrHw hw = buildMisrHw(b, in, 16, en, clr);
  b.output("sig", hw.state);
  nl.validate();

  SeqSim sim(nl);
  sim.reset();
  sim.comb().setBusBroadcast(Bus{en}, 1);
  sim.comb().setBusBroadcast(Bus{clr}, 0);
  Misr sw(16);
  std::mt19937_64 rng(4);
  for (int c = 0; c < 300; ++c) {
    const std::uint64_t v = rng() & 0xFFFFFF;
    sim.comb().setBusBroadcast(in, v);
    sim.step();
    sw.stepWide(v, 24);
    sim.evalComb();
    EXPECT_EQ(sim.comb().getBusLane(nl.findPort("sig")->bits, 0), sw.state())
        << "cycle " << c;
  }
}

TEST(ConstraintGen, ScheduleWrapsAndDwells) {
  ScheduleConstraint cg(4, {{0xF, 3}, {0x2, 1}, {0x7, 2}});
  EXPECT_EQ(cg.period(), 6);
  const unsigned expect[12] = {0xF, 0xF, 0xF, 0x2, 0x7, 0x7,
                               0xF, 0xF, 0xF, 0x2, 0x7, 0x7};
  for (int c = 0; c < 12; ++c) {
    EXPECT_EQ(cg.valueAt(c), expect[c]) << c;
  }
}

TEST(ConstraintGen, HardwareMatchesSoftware) {
  ScheduleConstraint cg(4, {{0xA, 5}, {0x1, 2}, {0xC, 9}});
  Netlist nl("cg_hw");
  Builder b(nl);
  const NetId en = b.input("en", 1)[0];
  const NetId clr = b.input("clr", 1)[0];
  b.output("v", buildScheduleCgHw(b, cg, en, clr));
  nl.validate();
  SeqSim sim(nl);
  sim.reset();
  sim.comb().setBusBroadcast(Bus{en}, 1);
  sim.comb().setBusBroadcast(Bus{clr}, 0);
  for (int c = 0; c < 50; ++c) {
    sim.evalComb();
    EXPECT_EQ(sim.comb().getBusLane(nl.findPort("v")->bits, 0), cg.valueAt(c))
        << "cycle " << c;
    sim.clockEdge();
  }
}

TEST(ConstraintGen, BiasedProbabilitiesAndDeterminism) {
  using B = BiasedConstraint::BitBias;
  BiasedConstraint cg(4, {B::kFree, B::kRare4, B::kOften2, B::kOne}, 24,
                      0xFACE);
  int ones[4] = {0, 0, 0, 0};
  const int n = 4096;
  for (int c = 0; c < n; ++c) {
    const auto v = cg.valueAt(c);
    for (int j = 0; j < 4; ++j) {
      if ((v >> j) & 1u) ++ones[j];
    }
  }
  EXPECT_NEAR(ones[0] / double(n), 0.5, 0.05);    // free
  EXPECT_NEAR(ones[1] / double(n), 1.0 / 16, 0.02);  // rare4
  EXPECT_NEAR(ones[2] / double(n), 0.75, 0.05);   // often2
  EXPECT_EQ(ones[3], n);                          // constant one
  // Random access must agree with the sequential walk.
  BiasedConstraint cg2(4, {B::kFree, B::kRare4, B::kOften2, B::kOne}, 24,
                       0xFACE);
  EXPECT_EQ(cg2.valueAt(1234), cg.valueAt(1234));
  EXPECT_EQ(cg2.valueAt(7), cg.valueAt(7));  // backwards jump
}

TEST(ConstraintGen, BiasedHardwareMatchesSoftware) {
  using B = BiasedConstraint::BitBias;
  BiasedConstraint cg(5, {B::kFree, B::kRare2, B::kRare3, B::kOften2,
                          B::kZero},
                      16, 0x1DEA);
  Netlist nl("bcg");
  Builder b(nl);
  const NetId en = b.input("en", 1)[0];
  const NetId load = b.input("load", 1)[0];
  b.output("v", buildBiasedCgHw(b, cg, en, load));
  nl.validate();
  SeqSim sim(nl);
  sim.reset();
  sim.comb().setBusBroadcast(Bus{en}, 0);
  sim.comb().setBusBroadcast(Bus{load}, 1);
  sim.step();  // seed load
  sim.comb().setBusBroadcast(Bus{load}, 0);
  sim.comb().setBusBroadcast(Bus{en}, 1);
  for (int c = 0; c < 400; ++c) {
    sim.evalComb();
    ASSERT_EQ(sim.comb().getBusLane(nl.findPort("v")->bits, 0), cg.valueAt(c))
        << "cycle " << c;
    sim.clockEdge();
  }
}

TEST(ControlUnit, ProgramRunFinish) {
  BistControlUnit cu(12);
  EXPECT_EQ(cu.maxPatterns(), 4095u);  // paper: up to 4,096 patterns
  cu.command(BistCommand::kLoadCount, 100);
  cu.command(BistCommand::kStart);
  EXPECT_TRUE(cu.testEnable());
  for (int i = 0; i < 99; ++i) cu.tick();
  EXPECT_TRUE(cu.testEnable());
  EXPECT_FALSE(cu.endTest());
  cu.tick();
  EXPECT_FALSE(cu.testEnable());
  EXPECT_TRUE(cu.endTest());
}

TEST(ControlUnit, StopAndResultSelect) {
  BistControlUnit cu;
  cu.command(BistCommand::kLoadCount, 1000);
  cu.command(BistCommand::kStart);
  cu.tick();
  cu.command(BistCommand::kStop);
  EXPECT_FALSE(cu.testEnable());
  EXPECT_FALSE(cu.endTest());
  cu.command(BistCommand::kSelectResult, 2);
  EXPECT_EQ(cu.resultSelect(), 2u);
  const auto status = cu.statusWord();
  EXPECT_EQ((status >> 2) & 3u, 2u);
}

TEST(Engine, ArchitecturalCases) {
  // Case a: 8 free inputs, 20-bit ALFSR.
  Netlist small("small");
  {
    Builder b(small);
    b.output("y", b.bwNot(b.input("x", 8)));
  }
  // Case b: 30 free inputs > 20.
  Netlist wide("wide");
  {
    Builder b(wide);
    b.output("y", b.bwNot(b.input("x", 30)));
  }
  // Case c/d analogues with a constrained port.
  Netlist ctrl_small("cs");
  {
    Builder b(ctrl_small);
    const Bus x = b.input("x", 8);
    const Bus sel = b.input("sel", 4);
    b.output("y", b.mux(b.bwNot(x), x, b.reduceAnd(sel)));
  }
  BistEngine engine;
  const auto cg = std::make_shared<HoldConstraint>(4, 0xF);
  const int a = engine.attachModule(small);
  const int bcase = engine.attachModule(wide);
  const int c = engine.attachModule(ctrl_small, {{"sel", cg}});
  EXPECT_EQ(engine.architecturalCase(a), 'a');
  EXPECT_EQ(engine.architecturalCase(bcase), 'b');
  EXPECT_EQ(engine.architecturalCase(c), 'c');
}

TEST(Engine, ConstrainedPortFollowsCg) {
  Netlist nl("m");
  {
    Builder b(nl);
    const Bus x = b.input("x", 6);
    const Bus sel = b.input("sel", 4);
    b.output("y", b.bw(GateType::kXor, x, Builder::concat(std::vector<Bus>{
                                              sel, Builder::slice(sel, 0, 2)})));
  }
  BistEngine engine;
  const auto cg = std::make_shared<ScheduleConstraint>(
      4, std::vector<ScheduleConstraint::Entry>{{0x3, 2}, {0xC, 2}});
  const int m = engine.attachModule(nl, {{"sel", cg}});
  const auto stim = engine.stimulus(m, 8);
  // sel occupies PI positions 6..9.
  for (int c = 0; c < 8; ++c) {
    const unsigned sel_bits =
        static_cast<unsigned>((stim[static_cast<std::size_t>(c)] >> 6) & 0xF);
    EXPECT_EQ(sel_bits, cg->valueAt(c)) << "cycle " << c;
  }
}

TEST(Engine, StimulusIsDeterministic) {
  Netlist nl("m");
  {
    Builder b(nl);
    b.output("y", b.bwNot(b.input("x", 10)));
  }
  BistEngine e1, e2;
  const int m1 = e1.attachModule(nl);
  const int m2 = e2.attachModule(nl);
  EXPECT_EQ(e1.stimulus(m1, 128), e2.stimulus(m2, 128));
}

TEST(Engine, DefectChangesSignature) {
  const Netlist bn = ldpc::buildBitNode();
  BistEngine engine;
  const int m = engine.attachModule(bn);
  const std::uint64_t golden = engine.goldenSignature(m, 256);
  EXPECT_EQ(engine.runAndSign(m, bn, 256), golden);
  // Flip one gate: signature must change (MISR aliasing odds ~2^-16).
  const Netlist defective = withGateDefect(bn, 100, GateType::kNor);
  EXPECT_NE(engine.runAndSign(m, defective, 256), golden);
}

TEST(EngineHw, BistedModuleReproducesGoldenSignature) {
  // The merged gate-level BIST plumbing (muxes + ALFSR + CG + MISR) must
  // produce the same signature as the software engine, bit for bit.
  const Netlist cu = ldpc::buildControlUnit();
  BistEngine engine;
  const auto cg = std::make_shared<ScheduleConstraint>(
      3, std::vector<ScheduleConstraint::Entry>{{0x5, 7}, {0x4, 3}});
  const int m = engine.attachModule(cu, {{"mode", cg}});
  const Netlist bisted = buildBistedModule(engine, m);

  SeqSim sim(bisted);
  sim.reset();
  const Bus rst = bisted.findPort("bist_reset")->bits;
  const Bus te = bisted.findPort("test_enable")->bits;
  sim.comb().setBusBroadcast(rst, 1);
  sim.comb().setBusBroadcast(te, 0);
  // Functional inputs idle at zero during self-test.
  for (const PortBus& p : bisted.ports()) {
    if (p.is_input && p.name.rfind("f_", 0) == 0) {
      sim.comb().setBusBroadcast(p.bits, 0);
    }
  }
  sim.step();  // reset pulse: seed ALFSR, clear MISR/CG
  sim.comb().setBusBroadcast(rst, 0);
  sim.comb().setBusBroadcast(te, 1);
  const int cycles = 512;
  for (int c = 0; c < cycles; ++c) sim.step();
  sim.evalComb();
  const std::uint64_t hw_sig =
      sim.comb().getBusLane(bisted.findPort("bist_signature")->bits, 0);
  EXPECT_EQ(hw_sig, engine.goldenSignature(m, cycles));
}

TEST(EngineHw, EngineNetlistHasExpectedStructure) {
  const Netlist bn = ldpc::buildBitNode();
  const Netlist cn = ldpc::buildCheckNode();
  const Netlist cu = ldpc::buildControlUnit();
  BistEngine engine;
  const auto cg = std::make_shared<ScheduleConstraint>(
      4, std::vector<ScheduleConstraint::Entry>{{0x0, 1}, {0xF, 15}});
  engine.attachModule(bn, {{"path_sel", cg}});
  engine.attachModule(cn, {{"path_sel", cg}});
  engine.attachModule(cu);
  const Netlist hw = buildBistEngineHw(engine);
  // 20-bit ALFSR + 3 x 16-bit MISR + 12-bit counter/limit registers +
  // FSM/select: flop count in the right range.
  EXPECT_GT(hw.dffs().size(), 100u);
  EXPECT_LT(hw.dffs().size(), 200u);
  EXPECT_NO_THROW(hw.validate());
  // The result port is the MISR width.
  EXPECT_EQ(hw.findPort("result")->bits.size(), 16u);
}

}  // namespace
}  // namespace corebist
