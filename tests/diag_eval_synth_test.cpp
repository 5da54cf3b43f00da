// Diagnosis (equivalent fault classes), evaluation flows (Fig. 3/4 loops)
// and the synthesis-side analyses (area, STA).
#include <gtest/gtest.h>

#include "bist/engine.hpp"
#include "diag/diagnosis.hpp"
#include "eval/coverage.hpp"
#include "eval/flow.hpp"
#include "fault/fault.hpp"
#include "fault/seq_fsim.hpp"
#include "ldpc/arch/adapters.hpp"
#include "ldpc/gatelevel.hpp"
#include "netlist/builder.hpp"
#include "synth/area.hpp"
#include "synth/sta.hpp"

namespace corebist {
namespace {

TEST(Diagnosis, ClassPartitionBasics) {
  std::vector<Syndrome> syn = {
      {{0b0011}},           // class A (2 members)
      {{0b0011}},
      {{0b0100}},           // class B (1 member)
      {{}},                 // undetected: excluded
      {{0b0011, 0b1}},      // different length -> different class
      {{0}},                // all-zero word == empty -> undetected
  };
  const EquivalenceClasses e = analyzeSyndromes(syn);
  EXPECT_EQ(e.undetected, 2u);
  EXPECT_EQ(e.analyzed, 4u);
  EXPECT_EQ(e.num_classes, 3u);
  EXPECT_EQ(e.max_size, 2u);
  EXPECT_DOUBLE_EQ(e.mean_size, 4.0 / 3.0);
  ASSERT_GE(e.histogram.size(), 2u);
  EXPECT_EQ(e.histogram[0], 2u);  // two singleton classes
  EXPECT_EQ(e.histogram[1], 1u);  // one pair
}

TEST(Diagnosis, PatternListNormalization) {
  // Same detection set in different order -> same syndrome.
  const auto s = syndromesFromPatternLists({{5, 70}, {70, 5}, {5}});
  EXPECT_EQ(s[0], s[1]);
  EXPECT_NE(s[0], s[2]);
}

TEST(Diagnosis, WindowSyndromesSeparateFaults) {
  // A counter's enable-stuck and a high-bit-stuck produce different window
  // patterns, so the matrix separates them.
  Netlist nl("t");
  Builder b(nl);
  const Bus en = b.input("en", 1);
  const Bus q = b.counter("q", 6, en[0], b.lo());
  b.output("q", q);
  nl.validate();
  const FaultUniverse u = enumerateStuckAt(nl);
  SeqFaultSim fsim(nl);
  std::vector<std::uint64_t> stim(256, 1);
  for (std::size_t c = 3; c < stim.size(); c += 5) stim[c] = 0;
  FaultSimOptions o;
  o.cycles = 256;
  o.windows = 32;
  const auto r = fsim.run(u.faults, stim, o);
  const auto e = analyzeSyndromes(syndromesFromWindows(r.window_mask));
  EXPECT_GT(e.analyzed, u.faults.size() / 2);
  EXPECT_GT(e.num_classes, 4u);
}

TEST(Diagnosis, SignatureSyndromesAreFinerThanWindowMasks) {
  const Netlist nl = ldpc::buildControlUnit();
  const FaultUniverse u = enumerateStuckAt(nl);
  BistEngine engine;
  const int m = engine.attachModule(nl);
  const auto stim = engine.stimulus(m, 512);
  SeqFaultSim fsim(nl);
  FaultSimOptions o;
  o.cycles = 512;
  o.windows = 32;
  o.misr = makeMisrSpec(nl.primaryOutputs(), 16);
  const auto r = fsim.run(u.faults, stim, o);
  const auto coarse = analyzeSyndromes(syndromesFromWindows(r.window_mask));
  std::vector<Syndrome> fine(u.faults.size());
  for (std::size_t i = 0; i < u.faults.size(); ++i) {
    fine[i].words.assign(
        r.window_sig.begin() +
            static_cast<std::ptrdiff_t>(i) * r.sig_words_per_fault,
        r.window_sig.begin() +
            static_cast<std::ptrdiff_t>(i + 1) * r.sig_words_per_fault);
  }
  const auto fine_e = analyzeSyndromes(fine);
  // Signature values carry strictly more information than mismatch bits.
  EXPECT_GE(fine_e.num_classes, coarse.num_classes);
  EXPECT_LE(fine_e.max_size, coarse.max_size);
}

TEST(Diagnosis, CandidateScoringRanksByHammingDistance) {
  const std::vector<Syndrome> dict = {
      {{0b1100}},        // distance 2 to observed
      {{0b1010}},        // distance 0 (the culprit's class)
      {{0b1010, 0b1}},   // extra word -> distance 1
      {{0}},             // distance 2
  };
  const Syndrome observed{{0b1010}};
  const auto scores = scoreCandidates(dict, observed, 3);
  ASSERT_EQ(scores.size(), 3u);
  EXPECT_EQ(scores[0].fault, 1u);
  EXPECT_EQ(scores[0].distance, 0);
  EXPECT_EQ(scores[1].fault, 2u);
  EXPECT_EQ(scores[1].distance, 1);
  EXPECT_EQ(scores[2].distance, 2);
}

TEST(Diagnosis, DictionarySyndromesLocateAnInjectedFault) {
  // Closed-loop diagnosis over the kernel: build a dictionary, replay one
  // fault's own syndrome as the "tester observation", and the top-ranked
  // candidate class must contain that fault at distance 0.
  const Netlist nl = ldpc::buildBitNode();
  const FaultUniverse u = enumerateStuckAt(nl);
  SeqFaultSim fsim(nl);
  BistEngine engine;
  const int m = engine.attachModule(nl);
  const auto stim = engine.stimulus(m, 256);
  const CyclePatternSource patterns(stim, nl.primaryInputs().size());
  const auto dict = dictionarySyndromes(fsim, u.faults, patterns, 256, 4);
  ASSERT_EQ(dict.size(), u.faults.size());
  // Pick the first detected fault as the culprit.
  std::size_t culprit = dict.size();
  for (std::size_t i = 0; i < dict.size(); ++i) {
    if (!dict[i].empty()) {
      culprit = i;
      break;
    }
  }
  ASSERT_LT(culprit, dict.size());
  const auto scores = scoreCandidates(dict, dict[culprit], 5);
  ASSERT_FALSE(scores.empty());
  EXPECT_EQ(scores.front().distance, 0);
  bool culprit_in_class = false;
  for (const auto& s : scores) {
    if (s.distance == 0 && s.fault == culprit) culprit_in_class = true;
  }
  EXPECT_TRUE(culprit_in_class);
}

TEST(StatementCoverage, RecorderSemantics) {
  StatementCoverage cov(4);
  EXPECT_DOUBLE_EQ(cov.coverage(), 0.0);
  cov.hit(0);
  cov.hit(0);
  cov.hit(2);
  cov.hit(99);  // out of range: ignored
  EXPECT_EQ(cov.covered(), 2);
  EXPECT_EQ(cov.hitCount(0), 2u);
  EXPECT_DOUBLE_EQ(cov.coverage(), 0.5);
  cov.clear();
  EXPECT_EQ(cov.covered(), 0);
}

TEST(Flows, Step1MonotoneAndSaturating) {
  const Netlist cu = ldpc::buildControlUnit();
  BistEngine engine;
  const int m = engine.attachModule(cu);
  const auto stim = engine.stimulus(m, 512);
  auto adapter = ldpc::makeControlUnitAdapter();
  const int cps[] = {16, 64, 256, 512};
  const Step1Result r = runStep1Loop(*adapter, cu, stim, cps);
  ASSERT_EQ(r.points.size(), 4u);
  for (std::size_t i = 1; i < r.points.size(); ++i) {
    EXPECT_GE(r.points[i].statement_coverage,
              r.points[i - 1].statement_coverage);
    EXPECT_GE(r.points[i].toggle_activity, r.points[i - 1].toggle_activity);
  }
  EXPECT_GT(r.points.back().statement_coverage, 0.2);
  EXPECT_GT(r.points.back().toggle_activity, 0.2);
}

TEST(Flows, Step2CurveIsMonotoneAndEndsAtFinalCoverage) {
  const Netlist bn = ldpc::buildBitNode();
  const FaultUniverse u = enumerateStuckAt(bn);
  BistEngine engine;
  const int m = engine.attachModule(bn);
  const auto stim = engine.stimulus(m, 512);
  const int cps[] = {64, 128, 256, 512};
  const Step2Result r = runStep2Loop(bn, u.faults, stim, cps, 99.0);
  ASSERT_EQ(r.points.size(), 4u);
  for (std::size_t i = 1; i < r.points.size(); ++i) {
    EXPECT_GE(r.points[i].fault_coverage, r.points[i - 1].fault_coverage);
  }
  EXPECT_NEAR(r.points.back().fault_coverage, r.final_coverage, 1e-9);
  EXPECT_LT(r.patterns_at_target, 0);  // 99 % is out of reach at 512
}

TEST(Synth, AreaScalesWithStructure) {
  const TechLib lib = TechLib::generic130nm();
  Netlist small("s");
  {
    Builder b(small);
    b.output("y", b.add(b.input("a", 4), b.input("b", 4)));
  }
  Netlist big("b");
  {
    Builder b(big);
    b.output("y", b.add(b.input("a", 16), b.input("b", 16)));
  }
  const auto rs = reportArea(small, lib);
  const auto rb = reportArea(big, lib);
  EXPECT_GT(rb.total_um2, rs.total_um2);
  EXPECT_GT(rb.total_um2, 3.0 * rs.total_um2);  // ~4x the datapath
  EXPECT_EQ(rs.flop_count, 0u);
}

TEST(Synth, ScanFlopsCostMoreArea) {
  const TechLib lib = TechLib::generic130nm();
  Netlist nl("t");
  Builder b(nl);
  const Bus q = b.state("q", 8);
  b.connect(q, b.bwNot(q));
  b.output("q", q);
  EXPECT_GT(reportArea(nl, lib, /*scan=*/true).total_um2,
            reportArea(nl, lib, /*scan=*/false).total_um2);
}

TEST(Synth, TimingGrowsWithLogicDepth) {
  const TechLib lib = TechLib::generic130nm();
  Netlist shallow("s");
  {
    Builder b(shallow);
    b.output("y", b.add(b.input("a", 4), b.input("b", 4)));
  }
  Netlist deep("d");
  {
    Builder b(deep);
    b.output("y", b.add(b.input("a", 24), b.input("b", 24)));
  }
  const auto ts = analyzeTiming(shallow, lib);
  const auto td = analyzeTiming(deep, lib);
  EXPECT_GT(td.critical_path_ns, ts.critical_path_ns);
  EXPECT_GT(td.logic_depth, ts.logic_depth);
  EXPECT_GT(ts.fmax_mhz, td.fmax_mhz);
}

TEST(Synth, RegisteredEndpointIncludesSetup) {
  const TechLib lib = TechLib::generic130nm();
  Netlist nl("t");
  Builder b(nl);
  const Bus q = b.state("q", 4);
  b.connect(q, b.inc(q));
  // No POs: the only endpoints are the flop D pins.
  const auto t = analyzeTiming(nl, lib);
  EXPECT_TRUE(t.endpoint_is_flop);
  EXPECT_GT(t.critical_path_ns, lib.dff().clk_to_q_ns + lib.dff().setup_ns);
  // Scan variant is slower through the muxed-D setup.
  const auto tscan = analyzeTiming(nl, lib, /*scan=*/true);
  EXPECT_GT(tscan.critical_path_ns, t.critical_path_ns);
}

}  // namespace
}  // namespace corebist
