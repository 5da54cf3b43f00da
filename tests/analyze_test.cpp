// Static analyzer: structural lint (seeded-defect detection with witness
// replay), SCOAP golden values, SCOAP-guided PODEM coverage identity and
// the shared packed-stimulus hazard guards.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "analyze/hazards.hpp"
#include "analyze/lint.hpp"
#include "analyze/scoap.hpp"
#include "atpg/atpg.hpp"
#include "atpg/podem.hpp"
#include "fault/comb_fsim.hpp"
#include "fault/fault.hpp"
#include "netlist/builder.hpp"

namespace corebist {
namespace {

/// Random combinational DAG (same idiom as the fault-sim suites): every
/// gate reads earlier pool nets, so the clean netlist is loop-free by
/// construction and defects have to be injected by surgery.
Netlist randomComb(std::uint64_t seed, int width, int gates) {
  Netlist nl("rnd" + std::to_string(seed));
  Builder b(nl);
  std::mt19937_64 rng(seed);
  const Bus x = b.input("x", width);
  std::vector<NetId> pool(x.begin(), x.end());
  for (int i = 0; i < gates; ++i) {
    const NetId a = pool[rng() % pool.size()];
    const NetId c = pool[rng() % pool.size()];
    const GateType t = static_cast<GateType>(2 + rng() % 9);
    NetId o;
    if (t == GateType::kBuf || t == GateType::kNot) {
      o = b.g1(t, a);
    } else if (t == GateType::kMux2) {
      o = b.mux(a, c, pool[rng() % pool.size()]);
    } else {
      o = b.g2(t, a, c);
    }
    pool.push_back(o);
  }
  const std::size_t nout = std::min<std::size_t>(8, pool.size());
  b.output("y", Bus(pool.end() - static_cast<std::ptrdiff_t>(nout),
                    pool.end()));
  nl.validate();
  return nl;
}

/// Map net -> driving gate, built independently of the analyzer so witness
/// replay does not trust the code under test.
std::vector<GateId> driverMap(const Netlist& nl) {
  std::vector<GateId> drv(nl.numNets(), static_cast<GateId>(-1));
  for (GateId g = 0; g < nl.gates().size(); ++g) {
    drv[nl.gates()[g].out] = g;
  }
  return drv;
}

/// True when `from` is one of the inputs of the gate driving `to`.
bool feedsGateDriving(const Netlist& nl, const std::vector<GateId>& drv,
                      NetId from, NetId to) {
  const GateId g = drv[to];
  if (g == static_cast<GateId>(-1)) return false;
  const Gate& gate = nl.gates()[g];
  for (int p = 0; p < gate.nin; ++p) {
    if (gate.in[p] == from) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Structural lint: seeded defects
// ---------------------------------------------------------------------------

TEST(AnalyzeLint, CleanRandomNetlistsHaveNoErrors) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Netlist nl = randomComb(seed, 10, 30);
    const LintReport rep = lintNetlist(nl);
    EXPECT_EQ(rep.countOf(Severity::kError), 0u) << rep.summary();
    EXPECT_EQ(rep.netlist, nl.name());
  }
}

TEST(AnalyzeLint, InjectedCombLoopFiresWithReplayableWitness) {
  // Hand-built two-gate loop: rebind the AND's second input onto the OR
  // that consumes the AND, so a <-> c form a cycle.
  Netlist nl("loop2");
  Builder b(nl);
  const Bus x = b.input("x", 2);
  const NetId a = b.and2(x[0], x[1]);
  const NetId c = b.or2(a, x[0]);
  b.output("y", Bus{b.not1(c)});
  nl.validate();
  nl.rebindGateInput(/*g=*/0, /*pin=*/1, c);

  const LintReport rep = lintNetlist(nl);
  const auto loops = rep.ofRule(rules::kCombLoop);
  ASSERT_EQ(loops.size(), 1u) << rep.summary();
  EXPECT_EQ(loops[0]->severity, Severity::kError);
  const std::vector<NetId>& w = loops[0]->witness;
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(std::set<NetId>(w.begin(), w.end()), (std::set<NetId>{a, c}));
  // Witness contract: witness[i] feeds the gate driving witness[i+1],
  // cyclically.
  const auto drv = driverMap(nl);
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_TRUE(feedsGateDriving(nl, drv, w[i], w[(i + 1) % w.size()]))
        << "witness edge " << i << " does not replay";
  }
  // The loop is exactly the defect SCOAP refuses to level through.
  EXPECT_THROW((void)computeScoap(nl, nl.primaryOutputs()), std::logic_error);
}

TEST(AnalyzeLint, RandomizedSelfLoopAlwaysCaught) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Netlist nl = randomComb(seed, 8, 20);
    std::mt19937_64 rng(seed ^ 0xabcdu);
    const GateId g = static_cast<GateId>(rng() % nl.gates().size());
    nl.rebindGateInput(g, 0, nl.gates()[g].out);

    const LintReport rep = lintNetlist(nl);
    const auto loops = rep.ofRule(rules::kCombLoop);
    ASSERT_FALSE(loops.empty()) << "seed " << seed;
    bool witnessed = false;
    const auto drv = driverMap(nl);
    for (const Diagnostic* d : loops) {
      const std::vector<NetId>& w = d->witness;
      ASSERT_FALSE(w.empty());
      for (std::size_t i = 0; i < w.size(); ++i) {
        EXPECT_TRUE(feedsGateDriving(nl, drv, w[i], w[(i + 1) % w.size()]));
      }
      witnessed |= std::find(w.begin(), w.end(), nl.gates()[g].out) != w.end();
    }
    EXPECT_TRUE(witnessed) << "no reported cycle passes through the defect";
  }
}

TEST(AnalyzeLint, StrippedDriverReportsUndrivenNetWithReaderWitness) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Netlist nl = randomComb(seed, 8, 20);
    const GateId g = static_cast<GateId>(nl.gates().size() - 1);
    const NetId reader_out = nl.gates()[g].out;
    const NetId floating = nl.newNet();
    nl.rebindGateInput(g, 0, floating);

    const LintReport rep = lintNetlist(nl);
    const auto diags = rep.ofRule(rules::kUndrivenNet);
    ASSERT_FALSE(diags.empty()) << "seed " << seed;
    bool found = false;
    for (const Diagnostic* d : diags) {
      if (d->nets == std::vector<NetId>{floating}) {
        EXPECT_EQ(d->severity, Severity::kError);
        EXPECT_TRUE(std::find(d->witness.begin(), d->witness.end(),
                              reader_out) != d->witness.end())
            << "witness should name the reading gate's output";
        found = true;
      }
    }
    EXPECT_TRUE(found) << "seed " << seed;
  }
}

TEST(AnalyzeLint, DoubledDriverReportsMultiDrivenNet) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Netlist nl = randomComb(seed, 8, 20);
    const NetId target = nl.gates()[0].out;  // already gate-driven
    const NetId source = nl.primaryInputs()[0];
    nl.addRogueDriver(target, source);

    const LintReport rep = lintNetlist(nl);
    const auto diags = rep.ofRule(rules::kMultiDrivenNet);
    ASSERT_EQ(diags.size(), 1u) << "seed " << seed << " " << rep.summary();
    EXPECT_EQ(diags[0]->severity, Severity::kError);
    EXPECT_EQ(diags[0]->nets, std::vector<NetId>{target});
  }
}

TEST(AnalyzeLint, UnboundFlopReportsUnclockedFlop) {
  Netlist nl = randomComb(3, 6, 10);
  const NetId q = nl.addDff();  // never connectDff'd
  const LintReport rep = lintNetlist(nl);
  const auto diags = rep.ofRule(rules::kUnclockedFlop);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0]->severity, Severity::kError);
  EXPECT_EQ(diags[0]->nets, std::vector<NetId>{q});
}

TEST(AnalyzeLint, LogicOutsideEveryConeIsUnreachable) {
  Netlist nl("orphan");
  Builder b(nl);
  const Bus x = b.input("x", 2);
  const NetId live = b.and2(x[0], x[1]);
  const NetId dead = b.or2(x[0], x[1]);  // drives nothing observed
  b.output("y", Bus{b.not1(live)});
  nl.validate();

  const LintReport rep = lintNetlist(nl);
  const auto diags = rep.ofRule(rules::kUnreachableGate);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0]->severity, Severity::kWarning);
  EXPECT_TRUE(std::find(diags[0]->witness.begin(), diags[0]->witness.end(),
                        dead) != diags[0]->witness.end());
  EXPECT_TRUE(std::find(diags[0]->witness.begin(), diags[0]->witness.end(),
                        live) == diags[0]->witness.end());
}

TEST(AnalyzeLint, WidePrimaryInputBusIsAPackedStimulusHazard) {
  Netlist nl("wide");
  Builder b(nl);
  const Bus x = b.input("x", 70);
  b.output("y", Bus{b.and2(x[0], x[69])});
  nl.validate();

  EXPECT_FALSE(fitsPackedStimulus(nl));
  const LintReport rep = lintNetlist(nl);
  const auto diags = rep.ofRule(rules::kPackedStimulusWidth);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0]->severity, Severity::kWarning);
}

TEST(AnalyzeLint, JsonExportCarriesRuleAndWitness) {
  Netlist nl("loopjson");
  Builder b(nl);
  const Bus x = b.input("x", 2);
  const NetId a = b.and2(x[0], x[1]);
  const NetId c = b.or2(a, x[0]);
  b.output("y", Bus{c});
  nl.validate();
  nl.rebindGateInput(0, 1, c);

  const LintReport rep = lintNetlist(nl);
  ASSERT_TRUE(rep.hasErrors());
  const std::string json = rep.toJson();
  EXPECT_NE(json.find("\"netlist\": \"loopjson\""), std::string::npos);
  EXPECT_NE(json.find("\"rule\": \"comb-loop\""), std::string::npos);
  EXPECT_NE(json.find("\"witness\""), std::string::npos);
  EXPECT_NE(rep.summary().find("loopjson"), std::string::npos);
}

// ---------------------------------------------------------------------------
// SCOAP golden values
// ---------------------------------------------------------------------------

TEST(AnalyzeScoap, GoldenHandComputedCircuit) {
  // n1 = a & b, n2 = c | d, n3 = !n2, n4 = n1 ^ n3,
  // n5 = mux(a ? n4 : n1); POs = {n4, n5}. Every score below is the
  // hand-evaluated Goldstein recurrence.
  Netlist nl("scoap_gold");
  Builder b(nl);
  const Bus x = b.input("x", 4);
  const NetId n1 = b.and2(x[0], x[1]);
  const NetId n2 = b.or2(x[2], x[3]);
  const NetId n3 = b.not1(n2);
  const NetId n4 = b.xor2(n1, n3);
  const NetId n5 = b.mux(n1, n4, x[0]);
  b.output("y", Bus{n4, n5});
  nl.validate();

  const ScoapScores sc = computeScoap(nl, nl.primaryOutputs());
  for (const NetId pi : nl.primaryInputs()) {
    EXPECT_EQ(sc.cc0[pi], 1u);
    EXPECT_EQ(sc.cc1[pi], 1u);
  }
  EXPECT_EQ(sc.cc0[n1], 2u);  // min(1,1)+1
  EXPECT_EQ(sc.cc1[n1], 3u);  // 1+1+1
  EXPECT_EQ(sc.cc0[n2], 3u);
  EXPECT_EQ(sc.cc1[n2], 2u);
  EXPECT_EQ(sc.cc0[n3], 3u);  // cc1(n2)+1
  EXPECT_EQ(sc.cc1[n3], 4u);
  EXPECT_EQ(sc.cc0[n4], 6u);  // min(2+3, 3+4)+1
  EXPECT_EQ(sc.cc1[n4], 7u);  // min(2+4, 3+3)+1
  EXPECT_EQ(sc.cc0[n5], 4u);  // min(cc0(n1)+cc0(s), cc0(n4)+cc1(s))+1
  EXPECT_EQ(sc.cc1[n5], 5u);

  EXPECT_EQ(sc.co[n4], 0u);  // observed
  EXPECT_EQ(sc.co[n5], 0u);
  EXPECT_EQ(sc.co[n1], 2u);  // min(xor path 4, mux data path 2)
  EXPECT_EQ(sc.co[n3], 3u);  // 0 + min(cc0(n1), cc1(n1)) + 1
  EXPECT_EQ(sc.co[n2], 4u);  // through the inverter
  EXPECT_EQ(sc.co[x[0]], 4u);  // min(AND pin 4, MUX select 10)
  EXPECT_EQ(sc.co[x[1]], 4u);  // co(n1)+cc1(a)+1
  EXPECT_EQ(sc.co[x[2]], 6u);  // co(n2)+cc0(d)+1
  EXPECT_EQ(sc.co[x[3]], 6u);

  EXPECT_EQ(sc.cc(n1, true), 3u);
  EXPECT_EQ(sc.saCost(n1, false), 3u + 2u);  // drive 1, observe
}

TEST(AnalyzeScoap, GoldenNandNorBufXnor) {
  Netlist nl("scoap_gold2");
  Builder b(nl);
  const Bus x = b.input("x", 4);
  const NetId m1 = b.g2(GateType::kNand, x[0], x[1]);
  const NetId m2 = b.g2(GateType::kNor, x[2], x[3]);
  const NetId m3 = b.g1(GateType::kBuf, m1);
  const NetId m4 = b.g2(GateType::kXnor, m3, m2);
  b.output("y", Bus{m4});
  nl.validate();

  const ScoapScores sc = computeScoap(nl, nl.primaryOutputs());
  EXPECT_EQ(sc.cc0[m1], 3u);  // NAND: all inputs 1
  EXPECT_EQ(sc.cc1[m1], 2u);
  EXPECT_EQ(sc.cc0[m2], 2u);  // NOR: any input 1
  EXPECT_EQ(sc.cc1[m2], 3u);
  EXPECT_EQ(sc.cc0[m3], 4u);  // BUF: +1
  EXPECT_EQ(sc.cc1[m3], 3u);
  EXPECT_EQ(sc.cc1[m4], 7u);  // XNOR equal: min(4+2, 3+3)+1
  EXPECT_EQ(sc.cc0[m4], 6u);  // XNOR differ: min(4+3, 3+2)+1
}

TEST(AnalyzeScoap, DanglingNetIsUnobservable) {
  Netlist nl("dangle");
  Builder b(nl);
  const Bus x = b.input("x", 2);
  const NetId dead = b.and2(x[0], x[1]);
  const NetId live = b.or2(x[0], x[1]);
  b.output("y", Bus{live});
  nl.validate();

  const ScoapScores sc = computeScoap(nl, nl.primaryOutputs());
  EXPECT_EQ(sc.co[dead], kScoapInf);
  EXPECT_LT(sc.co[live], kScoapInf);
  EXPECT_LT(sc.cc0[dead], kScoapInf);  // still controllable
}

// ---------------------------------------------------------------------------
// SCOAP-guided PODEM: ordering heuristic only, coverage identical
// ---------------------------------------------------------------------------

TEST(AnalyzePodem, ScoapGuidanceKeepsTheTestableSetIdentical) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const Netlist nl = randomComb(seed, 8, 25);
    const std::vector<Fault> faults = enumerateStuckAt(nl).faults;
    const ScoapScores sc = computeScoap(nl, nl.primaryOutputs());

    Podem base(nl, nl.primaryInputs(), nl.primaryOutputs(),
               /*backtrack_limit=*/4000);
    Podem guided(nl, nl.primaryInputs(), nl.primaryOutputs(), 4000);
    guided.setScoap(&sc);

    VectorPatternSource tests(nl.primaryInputs().size());
    std::vector<std::size_t> tested;  // fault index -> pattern index
    std::vector<std::size_t> tested_fault;
    for (std::size_t i = 0; i < faults.size(); ++i) {
      const auto tb = base.generate(faults[i]);
      const auto tg = guided.generate(faults[i]);
      ASSERT_EQ(tb.has_value(), tg.has_value())
          << "seed " << seed << " fault " << i
          << ": guidance changed testability";
      if (!tg.has_value()) continue;
      std::vector<std::uint8_t> bits(tg->size());
      for (std::size_t j = 0; j < tg->size(); ++j) {
        bits[j] = (*tg)[j] == Tv::k1 ? 1 : 0;  // X -> 0
      }
      tested_fault.push_back(i);
      tests.append(bits);
    }
    ASSERT_GT(tested_fault.size(), 0u);

    // Every guided test must actually detect its fault under full-fidelity
    // grading (X filled with 0, so detection at the generated pattern index
    // specifically is not guaranteed — detection *somewhere* is).
    CombFaultSim sim(nl, nl.primaryInputs(), nl.primaryOutputs());
    FaultSimOptions o;
    o.cycles = tests.patternCount();
    o.prepass_cycles = 0;
    std::vector<Fault> targeted;
    for (const std::size_t i : tested_fault) targeted.push_back(faults[i]);
    const FaultSimResult r = sim.run(targeted, tests, o);
    EXPECT_EQ(r.detected, targeted.size())
        << "seed " << seed << ": a guided PODEM test failed to detect";
  }
}

TEST(AnalyzePodem, NullScoresAreTheUnguidedBaseline) {
  const Netlist nl = randomComb(11, 8, 25);
  const std::vector<Fault> faults = enumerateStuckAt(nl).faults;
  Podem a(nl, nl.primaryInputs(), nl.primaryOutputs(), 256);
  Podem b(nl, nl.primaryInputs(), nl.primaryOutputs(), 256);
  b.setScoap(nullptr);  // explicit null == default
  for (const Fault& f : faults) {
    const auto ta = a.generate(f);
    const auto tb = b.generate(f);
    ASSERT_EQ(ta.has_value(), tb.has_value());
    if (ta.has_value()) {
      EXPECT_EQ(*ta, *tb);
    }
    EXPECT_EQ(a.backtracksUsed(), b.backtracksUsed());
  }
}

// ---------------------------------------------------------------------------
// Shared hazard guards (the one-place-for-the-limit satellites)
// ---------------------------------------------------------------------------

TEST(AnalyzeHazards, PatternSourcesUseTheSharedGuards) {
  static_assert(kMaxPackedStimulusInputs == 64);

  VectorPatternSource vps(4);
  const std::vector<std::uint8_t> short_bits(3, 0);
  EXPECT_THROW(vps.append(short_bits), std::invalid_argument);
  const std::vector<std::uint8_t> ok_bits(4, 1);
  vps.append(ok_bits);
  EXPECT_EQ(vps.patternCount(), 1);

  const std::vector<std::uint64_t> words(4, 0);
  EXPECT_THROW((CyclePatternSource{words, 65}), std::invalid_argument);
  const CyclePatternSource ok{words, 64};
  EXPECT_EQ(ok.patternCount(), 4);
}

TEST(AnalyzeHazards, SequentialAtpgRejectsWideModulesViaTheSharedRule) {
  Netlist nl("wide_seq");
  Builder b(nl);
  const Bus x = b.input("x", 70);
  b.output("y", Bus{b.and2(x[0], x[69])});
  nl.validate();
  const std::vector<Fault> faults = enumerateStuckAt(nl).faults;

  SeqAtpgOptions o;
  try {
    (void)runSequentialAtpg(nl, faults, o);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("runSequentialAtpg"), std::string::npos) << what;
    EXPECT_NE(what.find("64"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace corebist
