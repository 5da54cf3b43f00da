// Unit tests for the netlist container, builder, levelization and the
// compiled gate program.
#include <gtest/gtest.h>

#include <bit>
#include <random>

#include "fault/lane.hpp"
#include "fixtures.hpp"
#include "netlist/builder.hpp"
#include "netlist/export.hpp"
#include "netlist/levelize.hpp"
#include "netlist/netlist.hpp"
#include "sim/comb_sim.hpp"
#include "sim/gate_program.hpp"

namespace corebist {
namespace {

TEST(Gate, ArityTable) {
  EXPECT_EQ(gateArity(GateType::kConst0), 0);
  EXPECT_EQ(gateArity(GateType::kNot), 1);
  EXPECT_EQ(gateArity(GateType::kNand), 2);
  EXPECT_EQ(gateArity(GateType::kMux2), 3);
}

TEST(Gate, WordEvalTruthTables) {
  const std::uint64_t a = 0b1100;
  const std::uint64_t b = 0b1010;
  EXPECT_EQ(evalGateWord(GateType::kAnd, a, b, 0) & 0xF, 0b1000u);
  EXPECT_EQ(evalGateWord(GateType::kOr, a, b, 0) & 0xF, 0b1110u);
  EXPECT_EQ(evalGateWord(GateType::kXor, a, b, 0) & 0xF, 0b0110u);
  EXPECT_EQ(evalGateWord(GateType::kNand, a, b, 0) & 0xF, 0b0111u);
  EXPECT_EQ(evalGateWord(GateType::kNor, a, b, 0) & 0xF, 0b0001u);
  EXPECT_EQ(evalGateWord(GateType::kXnor, a, b, 0) & 0xF, 0b1001u);
  EXPECT_EQ(evalGateWord(GateType::kNot, a, 0, 0) & 0xF, 0b0011u);
  // Mux: sel ? b : a
  EXPECT_EQ(evalGateWord(GateType::kMux2, a, b, 0b1111) & 0xF, b & 0xF);
  EXPECT_EQ(evalGateWord(GateType::kMux2, a, b, 0b0000) & 0xF, a & 0xF);
}

TEST(Netlist, BasicConstruction) {
  Netlist nl("t");
  const NetId a = nl.addPrimaryInput();
  const NetId b = nl.addPrimaryInput();
  const NetId y = nl.addGate2(GateType::kAnd, a, b);
  nl.markPrimaryOutput(y);
  EXPECT_EQ(nl.numGates(), 1u);
  EXPECT_EQ(nl.numNets(), 3u);
  EXPECT_EQ(nl.driverOf(y), 0u);
  EXPECT_EQ(nl.driverOf(a), Netlist::kNoDriver);
  EXPECT_NO_THROW(nl.validate());
}

TEST(Netlist, ValidateCatchesUnboundDff) {
  Netlist nl("t");
  const NetId q = nl.addDff();
  nl.markPrimaryOutput(q);
  EXPECT_THROW(nl.validate(), std::logic_error);
}

TEST(Netlist, ValidateCatchesUndrivenNet) {
  Netlist nl("t");
  const NetId a = nl.addPrimaryInput();
  const NetId dangling = nl.newNet();
  const NetId y = nl.addGate2(GateType::kOr, a, dangling);
  nl.markPrimaryOutput(y);
  EXPECT_THROW(nl.validate(), std::logic_error);
}

TEST(Netlist, DriveNetStitching) {
  Netlist nl("t");
  const NetId a = nl.addPrimaryInput();
  const NetId target = nl.newNet();
  nl.driveNet(target, a);
  EXPECT_NE(nl.driverOf(target), Netlist::kNoDriver);
  EXPECT_THROW(nl.driveNet(target, a), std::logic_error);
}

TEST(Netlist, AbsorbOffsetsEverything) {
  Netlist child("child");
  Builder cb(child);
  const Bus x = cb.input("x", 4);
  cb.output("y", cb.bwNot(x));

  Netlist parent("parent");
  Builder pb(parent);
  const Bus px = pb.input("px", 4);
  const NetId off = parent.absorb(child, "u0_");
  const PortBus* cx = parent.findPort("u0_x");
  ASSERT_NE(cx, nullptr);
  for (int i = 0; i < 4; ++i) {
    parent.driveNet(cx->bits[static_cast<std::size_t>(i)], px[static_cast<std::size_t>(i)]);
  }
  const PortBus* cy = parent.findPort("u0_y");
  ASSERT_NE(cy, nullptr);
  pb.output("py", cy->bits);
  EXPECT_NO_THROW(parent.validate());
  EXPECT_GT(off, 0u);

  CombSim sim(parent);
  sim.setBusBroadcast(px, 0b0101);
  sim.eval();
  EXPECT_EQ(sim.getBusLane(cy->bits, 0), 0b1010u);
}

TEST(Levelize, OrderRespectsDependencies) {
  Netlist nl("t");
  Builder b(nl);
  const Bus x = b.input("x", 8);
  const Bus y = b.input("y", 8);
  const Bus s = b.add(x, y);
  b.output("s", s);
  const Levelization lev = levelize(nl);
  EXPECT_EQ(lev.order.size(), nl.numGates());
  std::vector<int> pos(nl.numGates(), -1);
  for (std::size_t i = 0; i < lev.order.size(); ++i) {
    pos[lev.order[i]] = static_cast<int>(i);
  }
  for (GateId g = 0; g < nl.numGates(); ++g) {
    for (int p = 0; p < nl.gates()[g].nin; ++p) {
      const GateId drv = nl.driverOf(nl.gates()[g].in[static_cast<std::size_t>(p)]);
      if (drv != Netlist::kNoDriver) {
        EXPECT_LT(pos[drv], pos[g]);
      }
    }
  }
}

TEST(Levelize, DetectsCombinationalLoop) {
  Netlist self_loop("t");
  const NetId a = self_loop.addPrimaryInput();
  const NetId loop = self_loop.newNet();
  const NetId y = self_loop.addGate2(GateType::kAnd, a, loop);
  self_loop.driveNet(loop, y);
  // A two-gate loop closed through a MUX select pin.
  Netlist mux_loop("t2");
  const NetId x = mux_loop.addPrimaryInput();
  const NetId inv = mux_loop.addGate1(GateType::kNot, x);
  const NetId m = mux_loop.addMux(x, x, inv);
  mux_loop.rebindGateInput(0, 0, m);
  for (const Netlist* nl : {&self_loop, &mux_loop}) {
    EXPECT_THROW((void)levelize(*nl), std::logic_error);
    EXPECT_THROW(GateProgram{*nl}, std::logic_error);
  }
}

/// The reference GateProgram::eval must match: every gate in levelized
/// order, one type switch per gate.
template <class Word>
void evalLevelizedLoop(const Netlist& nl, std::vector<Word>& v) {
  for (const GateId g : levelize(nl).order) {
    const Gate& gate = nl.gates()[g];
    Word in[3] = {};
    for (int p = 0; p < gate.nin; ++p) {
      in[p] = v[gate.in[static_cast<std::size_t>(p)]];
    }
    v[gate.out] = evalGateWord(gate.type, in[0], in[1], in[2]);
  }
}

template <class Word>
void expectProgramMatchesLoop(const Netlist& nl, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<Word> loop(nl.numNets());
  for (Word& w : loop) {
    if constexpr (std::is_same_v<Word, std::uint64_t>) {
      w = rng();
    } else {
      for (auto& word : w.w) word = rng();
    }
  }
  std::vector<Word> prog = loop;
  evalLevelizedLoop(nl, loop);
  const GateProgram program(nl);
  program.eval(prog);
  EXPECT_TRUE(prog == loop) << nl.name() << " seed " << seed;
}

std::vector<Netlist> programInputs(std::uint64_t seed) {
  std::vector<Netlist> out;
  out.push_back(fixtures::randomComb(seed, 8, 80));
  out.push_back(fixtures::randomSeq(seed, 6, 5, 80));
  Netlist consts("consts");
  Builder b(consts);
  const Bus x = b.input("x", 4);
  const Bus k = b.constant(4, 0b0110);  // TIE0 and TIE1 gates
  b.output("y", b.bw(GateType::kXor, x, k));
  out.push_back(std::move(consts));
  Netlist empty("no_gates");
  Builder e(empty);
  e.output("y", e.input("x", 3));
  out.push_back(std::move(empty));
  return out;
}

TEST(GateProgram, EvalMatchesLevelizedGateLoop) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    for (const Netlist& nl : programInputs(seed)) {
      expectProgramMatchesLoop<std::uint64_t>(nl, seed);
      expectProgramMatchesLoop<LaneWord<1>>(nl, seed);
      expectProgramMatchesLoop<LaneWord<4>>(nl, seed);
      expectProgramMatchesLoop<LaneWord<8>>(nl, seed);
    }
  }
}

TEST(GateProgram, LevelsExceedFaninDrivers) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    for (const Netlist& nl : programInputs(seed)) {
      const GateProgram program(nl);
      EXPECT_EQ(program.levels(),
                nl.numGates() == 0 ? 0 : 1 + levelize(nl).depth);
      for (GateId g = 0; g < nl.numGates(); ++g) {
        const Gate& gate = nl.gates()[g];
        EXPECT_EQ(program.driverLevel(gate.out), program.level(g));
        for (int p = 0; p < gate.nin; ++p) {
          const GateId drv =
              nl.driverOf(gate.in[static_cast<std::size_t>(p)]);
          if (drv != Netlist::kNoDriver) {
            EXPECT_GT(program.level(g), program.level(drv)) << nl.name();
          }
        }
      }
      for (const NetId n : nl.primaryInputs()) {
        EXPECT_EQ(program.driverLevel(n), -1);
      }
      for (const Dff& ff : nl.dffs()) EXPECT_EQ(program.driverLevel(ff.q), -1);
    }
  }
}

class BuilderArithTest : public ::testing::TestWithParam<int> {};

TEST_P(BuilderArithTest, AdderMatchesReference) {
  const int width = GetParam();
  Netlist nl("t");
  Builder b(nl);
  const Bus x = b.input("x", width);
  const Bus y = b.input("y", width);
  b.output("sum", b.add(x, y));
  b.output("diff", b.sub(x, y));
  CombSim sim(nl);
  std::mt19937_64 rng(7);
  const std::uint64_t mask = width >= 64 ? ~std::uint64_t{0}
                                         : ((std::uint64_t{1} << width) - 1);
  for (int iter = 0; iter < 200; ++iter) {
    const std::uint64_t xv = rng() & mask;
    const std::uint64_t yv = rng() & mask;
    sim.setBusBroadcast(x, xv);
    sim.setBusBroadcast(y, yv);
    sim.eval();
    EXPECT_EQ(sim.getBusLane(nl.findPort("sum")->bits, 0), (xv + yv) & mask);
    EXPECT_EQ(sim.getBusLane(nl.findPort("diff")->bits, 0), (xv - yv) & mask);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BuilderArithTest,
                         ::testing::Values(1, 4, 8, 12, 16, 20, 32));

TEST(Builder, IncrementAndNegate) {
  Netlist nl("t");
  Builder b(nl);
  const Bus x = b.input("x", 8);
  b.output("inc", b.inc(x));
  b.output("neg", b.neg(x));
  CombSim sim(nl);
  for (std::uint64_t v : {0ull, 1ull, 0x7Full, 0x80ull, 0xFFull, 0x55ull}) {
    sim.setBusBroadcast(x, v);
    sim.eval();
    EXPECT_EQ(sim.getBusLane(nl.findPort("inc")->bits, 0), (v + 1) & 0xFF);
    EXPECT_EQ(sim.getBusLane(nl.findPort("neg")->bits, 0), (-v) & 0xFF);
  }
}

TEST(Builder, Comparisons) {
  Netlist nl("t");
  Builder b(nl);
  const Bus x = b.input("x", 8);
  const Bus y = b.input("y", 8);
  b.output("eq", Bus{b.eq(x, y)});
  b.output("lt", Bus{b.ltU(x, y)});
  b.output("eq42", Bus{b.eqConst(x, 42)});
  CombSim sim(nl);
  std::mt19937_64 rng(3);
  for (int iter = 0; iter < 300; ++iter) {
    const std::uint64_t xv = rng() & 0xFF;
    const std::uint64_t yv = rng() & 0xFF;
    sim.setBusBroadcast(x, xv);
    sim.setBusBroadcast(y, yv);
    sim.eval();
    EXPECT_EQ(sim.getBusLane(nl.findPort("eq")->bits, 0), xv == yv ? 1u : 0u);
    EXPECT_EQ(sim.getBusLane(nl.findPort("lt")->bits, 0), xv < yv ? 1u : 0u);
    EXPECT_EQ(sim.getBusLane(nl.findPort("eq42")->bits, 0),
              xv == 42 ? 1u : 0u);
  }
}

TEST(Builder, SaturatingSignedAdd) {
  Netlist nl("t");
  Builder b(nl);
  const Bus x = b.input("x", 6);
  const Bus y = b.input("y", 6);
  b.output("s", b.satAddSigned(x, y));
  CombSim sim(nl);
  auto ref = [](int a, int bb) {
    int s = a + bb;
    if (s > 31) s = 31;
    if (s < -32) s = -32;
    return s & 0x3F;
  };
  for (int a = -32; a < 32; a += 3) {
    for (int c = -32; c < 32; c += 5) {
      sim.setBusBroadcast(x, static_cast<std::uint64_t>(a & 0x3F));
      sim.setBusBroadcast(y, static_cast<std::uint64_t>(c & 0x3F));
      sim.eval();
      EXPECT_EQ(sim.getBusLane(nl.findPort("s")->bits, 0),
                static_cast<std::uint64_t>(ref(a, c)))
          << "a=" << a << " b=" << c;
    }
  }
}

TEST(Builder, AbsSigned) {
  Netlist nl("t");
  Builder b(nl);
  const Bus x = b.input("x", 6);
  b.output("abs", b.absSigned(x));
  CombSim sim(nl);
  for (int a = -31; a < 32; ++a) {
    sim.setBusBroadcast(x, static_cast<std::uint64_t>(a & 0x3F));
    sim.eval();
    EXPECT_EQ(sim.getBusLane(nl.findPort("abs")->bits, 0),
              static_cast<std::uint64_t>(a < 0 ? -a : a));
  }
}

TEST(Builder, MuxTreeSelectsCorrectInput) {
  Netlist nl("t");
  Builder b(nl);
  std::vector<Bus> ins;
  for (int i = 0; i < 8; ++i) ins.push_back(b.input("i" + std::to_string(i), 4));
  const Bus sel = b.input("sel", 3);
  b.output("y", b.muxN(ins, sel));
  CombSim sim(nl);
  for (int s = 0; s < 8; ++s) {
    for (int i = 0; i < 8; ++i) {
      sim.setBusBroadcast(ins[static_cast<std::size_t>(i)],
                          static_cast<std::uint64_t>(i + 3));
    }
    sim.setBusBroadcast(sel, static_cast<std::uint64_t>(s));
    sim.eval();
    EXPECT_EQ(sim.getBusLane(nl.findPort("y")->bits, 0),
              static_cast<std::uint64_t>(s + 3));
  }
}

TEST(Builder, RotateLeft) {
  Netlist nl("t");
  Builder b(nl);
  const Bus x = b.input("x", 8);
  const Bus amt = b.input("amt", 3);
  b.output("y", b.rotateLeft(x, amt));
  CombSim sim(nl);
  const std::uint64_t v = 0b10110001;
  for (int k = 0; k < 8; ++k) {
    sim.setBusBroadcast(x, v);
    sim.setBusBroadcast(amt, static_cast<std::uint64_t>(k));
    sim.eval();
    const std::uint64_t expect = ((v << k) | (v >> (8 - k))) & 0xFF;
    EXPECT_EQ(sim.getBusLane(nl.findPort("y")->bits, 0), expect) << k;
  }
}

TEST(Builder, DecodeOneHot) {
  Netlist nl("t");
  Builder b(nl);
  const Bus x = b.input("x", 3);
  b.output("d", b.decode(x));
  CombSim sim(nl);
  for (int v = 0; v < 8; ++v) {
    sim.setBusBroadcast(x, static_cast<std::uint64_t>(v));
    sim.eval();
    EXPECT_EQ(sim.getBusLane(nl.findPort("d")->bits, 0),
              std::uint64_t{1} << v);
  }
}

TEST(Builder, ReduceOps) {
  Netlist nl("t");
  Builder b(nl);
  const Bus x = b.input("x", 7);
  b.output("rand", Bus{b.reduceAnd(x)});
  b.output("ror", Bus{b.reduceOr(x)});
  b.output("rxor", Bus{b.reduceXor(x)});
  CombSim sim(nl);
  for (std::uint64_t v : {0ull, 0x7Full, 0x15ull, 0x40ull, 0x3Full}) {
    sim.setBusBroadcast(x, v);
    sim.eval();
    EXPECT_EQ(sim.getBusLane(nl.findPort("rand")->bits, 0),
              v == 0x7F ? 1u : 0u);
    EXPECT_EQ(sim.getBusLane(nl.findPort("ror")->bits, 0), v != 0 ? 1u : 0u);
    EXPECT_EQ(sim.getBusLane(nl.findPort("rxor")->bits, 0),
              static_cast<std::uint64_t>(std::popcount(v) & 1));
  }
}

TEST(Export, DotContainsPortsAndGates) {
  Netlist nl("dot");
  Builder b(nl);
  const Bus x = b.input("x", 2);
  b.output("y", Bus{b.and2(x[0], x[1])});
  const std::string dot = exportDot(nl);
  EXPECT_NE(dot.find("digraph \"dot\""), std::string::npos);
  EXPECT_NE(dot.find("AND2"), std::string::npos);
  EXPECT_NE(dot.find("x[0]"), std::string::npos);
  EXPECT_NE(dot.find("y[0]"), std::string::npos);
  // Truncation marker appears when the budget is tiny.
  EXPECT_NE(exportDot(nl, 0).find("truncated"), std::string::npos);
}

TEST(Builder, PortWidthAccounting) {
  Netlist nl("t");
  Builder b(nl);
  b.output("y", b.bwNot(b.input("a", 10)));
  (void)b.input("b", 7);
  EXPECT_EQ(nl.portWidth(true), 17);
  EXPECT_EQ(nl.portWidth(false), 10);
}

}  // namespace
}  // namespace corebist
