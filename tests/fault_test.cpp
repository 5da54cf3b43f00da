// Fault model, collapsing, and both fault-simulation engines.
#include <gtest/gtest.h>

#include <climits>
#include <random>
#include <string>

#include "bist/misr.hpp"
#include "fault/comb_fsim.hpp"
#include "fault/fault.hpp"
#include "fault/seq_fsim.hpp"
#include "fault/sharded_fsim.hpp"
#include "fixtures.hpp"
#include "netlist/builder.hpp"
#include "netlist/levelize.hpp"
#include "sim/comb_sim.hpp"

namespace corebist {
namespace {

/// c17-style reference circuit: small enough for brute-force cross-checks.
Netlist makeSmallComb() {
  Netlist nl("c_small");
  Builder b(nl);
  const Bus x = b.input("x", 5);
  const NetId g1 = b.g2(GateType::kNand, x[0], x[2]);
  const NetId g2 = b.g2(GateType::kNand, x[3], x[2]);
  const NetId g3 = b.g2(GateType::kNand, x[1], g2);
  const NetId g4 = b.g2(GateType::kNand, g2, x[4]);
  const NetId o1 = b.g2(GateType::kNand, g1, g3);
  const NetId o2 = b.g2(GateType::kNand, g3, g4);
  b.output("o", Bus{o1, o2});
  return nl;
}

TEST(FaultModel, EnumerationCountsStemsAndBranches) {
  Netlist nl("t");
  Builder b(nl);
  const Bus x = b.input("x", 2);
  const NetId a = b.and2(x[0], x[1]);  // x0,x1 fanout 1
  const NetId y1 = b.not1(a);          // a has fanout 2 -> branches
  const NetId y2 = b.xor2(a, x[0]);    // x0 now fanout 2 as well
  b.output("y", Bus{y1, y2});
  const FaultUniverse u = enumerateStuckAt(nl, /*collapse=*/false);
  // Nets: x0,x1,a,y1,y2 = 5 stems x2 = 10; branches: a@not, a@xor, x0@and,
  // x0@xor = 4 x2 = 8. Total 18.
  EXPECT_EQ(u.uncollapsed, 18u);
}

TEST(FaultModel, CollapseMergesBufferChain) {
  Netlist nl("t");
  Builder b(nl);
  const Bus x = b.input("x", 1);
  const NetId b1 = b.g1(GateType::kBuf, x[0]);
  const NetId b2 = b.g1(GateType::kBuf, b1);
  const NetId y = b.g1(GateType::kNot, b2);
  b.output("y", Bus{y});
  const FaultUniverse u = enumerateStuckAt(nl);
  // 4 nets x 2 = 8 uncollapsed; BUF/NOT chains collapse everything into the
  // two polarities of a single class pair.
  EXPECT_EQ(u.uncollapsed, 8u);
  EXPECT_EQ(u.faults.size(), 2u);
}

TEST(FaultModel, CollapseAndGateEquivalence) {
  Netlist nl("t");
  Builder b(nl);
  const Bus x = b.input("x", 2);
  b.output("y", Bus{b.and2(x[0], x[1])});
  const FaultUniverse u = enumerateStuckAt(nl);
  // Uncollapsed: 3 nets x 2 = 6. AND: in-sa0 (x2) == out-sa0 -> merges two
  // away: 4 collapsed classes.
  EXPECT_EQ(u.uncollapsed, 6u);
  EXPECT_EQ(u.faults.size(), 4u);
}

TEST(FaultModel, TransitionMappingPreservesSites) {
  const Netlist nl = makeSmallComb();
  const FaultUniverse u = enumerateStuckAt(nl);
  const auto tdf = toTransitionFaults(u.faults);
  ASSERT_EQ(tdf.size(), u.faults.size());
  for (std::size_t i = 0; i < tdf.size(); ++i) {
    EXPECT_EQ(tdf[i].net, u.faults[i].net);
    EXPECT_FALSE(isStuckAt(tdf[i].kind));
  }
}

/// Brute-force single-fault simulation for cross-checking CombFaultSim.
std::uint64_t bruteForceDetect(const Netlist& nl, const Fault& f,
                               const PatternBlock& blk,
                               std::span<const NetId> inputs,
                               std::span<const NetId> observed) {
  CombSim good(nl);
  CombSim bad(nl);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    good.set(inputs[i], blk.inputs[i]);
    bad.set(inputs[i], blk.inputs[i]);
  }
  good.eval();
  // Faulty evaluation: emulate by manual gate loop with injection.
  const Levelization lev = levelize(nl);
  auto& val = bad.values();
  const std::uint64_t forced = f.kind == FaultKind::kSa1 ? ~0ull : 0ull;
  if (f.isStem() && nl.driverOf(f.net) == Netlist::kNoDriver) {
    val[f.net] = forced;
  }
  for (const GateId g : lev.order) {
    const Gate& gate = nl.gates()[g];
    std::uint64_t in[3] = {0, 0, 0};
    for (int p = 0; p < gate.nin; ++p) in[p] = val[gate.in[static_cast<std::size_t>(p)]];
    if (!f.isStem() && f.gate == g) in[f.pin] = forced;
    val[gate.out] = evalGateWord(gate.type, in[0], in[1], in[2]);
    if (f.isStem() && gate.out == f.net) val[gate.out] = forced;
  }
  std::uint64_t det = 0;
  for (const NetId o : observed) det |= good.get(o) ^ bad.get(o);
  return det;
}

TEST(CombFaultSim, MatchesBruteForceOnEveryFault) {
  const Netlist nl = makeSmallComb();
  const FaultUniverse u = enumerateStuckAt(nl, /*collapse=*/false);
  const auto inputs = nl.primaryInputs();
  const auto observed = nl.primaryOutputs();
  CombFaultSim fsim(nl, inputs, observed);
  std::mt19937_64 rng(99);
  for (int trial = 0; trial < 8; ++trial) {
    PatternBlock blk;
    for (std::size_t i = 0; i < inputs.size(); ++i) blk.inputs.push_back(rng());
    fsim.loadBlock(blk);
    for (const Fault& f : u.faults) {
      const auto det = fsim.detect(f);
      EXPECT_EQ(det.word(0), bruteForceDetect(nl, f, blk, inputs, observed))
          << describeFault(nl, f);
      for (int wi = 1; wi < CombFaultSim::kWords; ++wi) {
        EXPECT_EQ(det.word(wi), 0u) << "narrow block leaked into wide lanes";
      }
    }
  }
}

/// One-fault-at-a-time reference for SeqFaultSim: a good machine and one
/// faulty machine, each run through the levelized per-gate loop. The fault
/// is injected right after its driver (gate-output stems), at cycle start
/// (source stems) or at the consuming pin (branches); a transition site
/// presents cur AND prev (slow-to-rise) or cur OR prev (slow-to-fall) of its
/// own raw value. Records what SeqFaultSim records for a full-length run.
struct SeqReference {
  std::int32_t first_detect = -1;
  std::uint64_t window_mask = 0;
  char misr_detect = 0;
  std::vector<std::uint64_t> window_sig;
};

SeqReference seqReference(const Netlist& nl, const Fault& f,
                          std::span<const std::uint64_t> stim, int cycles,
                          int windows, const MisrSpec& misr) {
  const Levelization lev = levelize(nl);
  const auto& gates = nl.gates();
  const auto& pis = nl.primaryInputs();
  const auto& dffs = nl.dffs();
  const int misr_w = misr.width;
  const int sig_words = (windows * misr_w + 63) / 64;
  SeqReference ref;
  ref.window_sig.assign(static_cast<std::size_t>(sig_words), 0);

  std::uint64_t prev = 0;
  auto present = [&](std::uint64_t raw) {
    std::uint64_t out = 0;
    switch (f.kind) {
      case FaultKind::kSa0:
        out = 0;
        break;
      case FaultKind::kSa1:
        out = ~std::uint64_t{0};
        break;
      case FaultKind::kSlowRise:
        out = raw & prev;
        break;
      case FaultKind::kSlowFall:
        out = raw | prev;
        break;
    }
    prev = raw;
    return out;
  };
  const bool source_stem =
      f.isStem() && nl.driverOf(f.net) == Netlist::kNoDriver;

  std::vector<std::uint64_t> good(nl.numNets(), 0);
  std::vector<std::uint64_t> bad(nl.numNets(), 0);
  std::vector<std::uint64_t> good_misr(static_cast<std::size_t>(misr_w), 0);
  std::vector<std::uint64_t> bad_misr(static_cast<std::size_t>(misr_w), 0);
  auto evalMachine = [&](std::vector<std::uint64_t>& val, bool faulty) {
    for (const GateId g : lev.order) {
      const Gate& gate = gates[g];
      std::uint64_t in[3] = {0, 0, 0};
      for (int p = 0; p < gate.nin; ++p) {
        in[p] = val[gate.in[static_cast<std::size_t>(p)]];
      }
      if (faulty && !f.isStem() && f.gate == g) in[f.pin] = present(in[f.pin]);
      val[gate.out] = evalGateWord(gate.type, in[0], in[1], in[2]);
      if (faulty && f.isStem() && gate.out == f.net) {
        val[gate.out] = present(val[gate.out]);
      }
    }
  };
  auto stepMisr = [&](std::vector<std::uint64_t>& st,
                      const std::vector<std::uint64_t>& val) {
    const std::uint64_t msb = st[static_cast<std::size_t>(misr_w - 1)];
    for (int j = misr_w - 1; j >= 0; --j) {
      std::uint64_t feed = 0;
      for (const NetId n : misr.feeds[static_cast<std::size_t>(j)]) {
        feed ^= val[n];
      }
      const std::uint64_t shifted =
          j > 0 ? st[static_cast<std::size_t>(j - 1)] : 0;
      const std::uint64_t fb = ((misr.poly >> j) & 1u) != 0 ? msb : 0;
      st[static_cast<std::size_t>(j)] = shifted ^ fb ^ feed;
    }
  };
  auto clock = [&](std::vector<std::uint64_t>& val) {
    std::vector<std::uint64_t> d(dffs.size());
    for (std::size_t i = 0; i < dffs.size(); ++i) d[i] = val[dffs[i].d];
    for (std::size_t i = 0; i < dffs.size(); ++i) val[dffs[i].q] = d[i];
  };

  for (int cycle = 0; cycle < cycles; ++cycle) {
    const std::uint64_t in = stim[static_cast<std::size_t>(cycle)];
    for (std::size_t j = 0; j < pis.size(); ++j) {
      good[pis[j]] = bad[pis[j]] = broadcast(((in >> j) & 1u) != 0);
    }
    if (source_stem) bad[f.net] = present(bad[f.net]);
    evalMachine(good, false);
    evalMachine(bad, true);

    const int w = static_cast<int>(
        (static_cast<std::int64_t>(cycle) * windows) / cycles);
    bool diff = false;
    for (const NetId po : nl.primaryOutputs()) diff |= good[po] != bad[po];
    if (diff) {
      if (ref.first_detect < 0) ref.first_detect = cycle;
      ref.window_mask |= std::uint64_t{1} << w;
    }
    stepMisr(good_misr, good);
    stepMisr(bad_misr, bad);
    const int w_next = static_cast<int>(
        (static_cast<std::int64_t>(cycle + 1) * windows) / cycles);
    if (w_next > w || cycle + 1 == cycles) {
      for (int j = 0; j < misr_w; ++j) {
        if (good_misr[static_cast<std::size_t>(j)] !=
            bad_misr[static_cast<std::size_t>(j)]) {
          const int bit = w * misr_w + j;
          ref.window_sig[static_cast<std::size_t>(bit / 64)] |=
              std::uint64_t{1} << (bit % 64);
        }
      }
    }
    clock(good);
    clock(bad);
  }
  ref.misr_detect = good_misr != bad_misr ? 1 : 0;
  return ref;
}

TEST(SeqFaultSim, MatchesOneFaultAtATimeReference) {
  const int cycles = 200;  // not a multiple of 64
  const int windows = 8;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Netlist nl = fixtures::randomSeq(seed, 6, 5, 60);
    // Uncollapsed: stems on PIs, state nets and gate outputs, and branches.
    std::vector<Fault> faults = enumerateStuckAt(nl, /*collapse=*/false).faults;
    const auto tdf = toTransitionFaults(faults);
    faults.insert(faults.end(), tdf.begin(), tdf.end());
    std::mt19937_64 rng(seed);
    std::vector<std::uint64_t> stim(cycles);
    for (auto& w : stim) w = rng();

    FaultSimOptions opts;
    opts.cycles = cycles;
    opts.prepass_cycles = 0;
    opts.drop_detected = false;
    opts.windows = windows;
    opts.misr = makeMisrSpec(nl.primaryOutputs(), 8);
    SeqFaultSim fsim(nl);
    const FaultSimResult r = fsim.run(faults, stim, opts);
    ASSERT_EQ(r.sig_words_per_fault, 1);

    FaultSimOptions ladder;
    ladder.cycles = cycles;
    ladder.prepass_cycles = 16;
    const FaultSimResult rl = fsim.run(faults, stim, ladder);

    for (std::size_t i = 0; i < faults.size(); ++i) {
      const SeqReference ref =
          seqReference(nl, faults[i], stim, cycles, windows, *opts.misr);
      const std::string what =
          "seed " + std::to_string(seed) + " " + describeFault(nl, faults[i]);
      EXPECT_EQ(r.first_detect[i], ref.first_detect) << what;
      EXPECT_EQ(r.window_mask[i], ref.window_mask) << what;
      EXPECT_EQ(r.misr_detect[i], ref.misr_detect) << what;
      EXPECT_EQ(r.window_sig[i], ref.window_sig[0]) << what;
      EXPECT_EQ(rl.first_detect[i], ref.first_detect) << what << " (ladder)";
    }
  }
}

TEST(CombFaultSim, ExhaustivePatternsDetectAllC17Faults) {
  const Netlist nl = makeSmallComb();
  const FaultUniverse u = enumerateStuckAt(nl);
  CombFaultSim fsim(nl, nl.primaryInputs(), nl.primaryOutputs());
  PatternBlock blk;
  // All 32 input combinations in one block.
  blk.inputs.resize(5);
  for (int v = 0; v < 32; ++v) {
    for (int i = 0; i < 5; ++i) {
      if ((v >> i) & 1) blk.inputs[static_cast<std::size_t>(i)] |= 1ull << v;
    }
  }
  blk.count = 32;
  fsim.loadBlock(blk);
  for (const Fault& f : u.faults) {
    EXPECT_TRUE(fsim.detect(f).any())
        << describeFault(nl, f) << " undetected by exhaustive patterns";
  }
}

TEST(CombFaultSim, TransitionNeedsLaunchTransition) {
  // y = x0 AND x1. Slow-to-rise on x0 requires x0: 0 -> 1 with x1 = 1.
  Netlist nl("t");
  Builder b(nl);
  const Bus x = b.input("x", 2);
  b.output("y", Bus{b.and2(x[0], x[1])});
  CombFaultSim fsim(nl, nl.primaryInputs(), nl.primaryOutputs());
  const Fault slow_rise{x[0], Fault::kNoGate, 0, FaultKind::kSlowRise};

  PatternBlock v1, v2;
  // Lane 0: x0 0->1, x1=1 (detect). Lane 1: x0 1->1 (no transition).
  // Lane 2: x0 0->1 but x1=0 (no propagation).
  v1.inputs = {0b010, 0b011};
  v2.inputs = {0b111, 0b011};
  v1.count = v2.count = 3;
  fsim.loadPairBlock(v1, v2);
  EXPECT_EQ(fsim.detect(slow_rise).word(0), 0b001u);
}

/// Sequential circuit with state: 4-bit counter with parity output.
Netlist makeCounterCircuit() {
  Netlist nl("cnt");
  Builder b(nl);
  const Bus en = b.input("en", 1);
  const Bus q = b.counter("q", 4, en[0], b.lo());
  b.output("q", q);
  b.output("par", Bus{b.reduceXor(q)});
  nl.validate();
  return nl;
}

TEST(SeqFaultSim, DetectsCounterFaults) {
  const Netlist nl = makeCounterCircuit();
  const FaultUniverse u = enumerateStuckAt(nl);
  SeqFaultSim fsim(nl);
  // Enable mostly on, with occasional holds so the enable-hold mux paths
  // are exercised too.
  std::vector<std::uint64_t> stim(96, 1);
  for (std::size_t c = 5; c < stim.size(); c += 7) stim[c] = 0;
  FaultSimOptions opts;
  opts.cycles = 96;
  opts.prepass_cycles = 0;
  const FaultSimResult r = fsim.run(u.faults, stim, opts);
  // A handful of faults around the tied-off clear path are structurally
  // untestable, so ~90 % is the ceiling here.
  EXPECT_GT(r.coverage(), 85.0);
  EXPECT_EQ(r.total, u.faults.size());
}

TEST(SeqFaultSim, PrepassAndFullRunAgree) {
  const Netlist nl = makeCounterCircuit();
  const FaultUniverse u = enumerateStuckAt(nl);
  SeqFaultSim fsim(nl);
  std::mt19937_64 rng(5);
  std::vector<std::uint64_t> stim(256);
  for (auto& w : stim) w = rng() & 1u;
  FaultSimOptions with_prepass;
  with_prepass.cycles = 256;
  with_prepass.prepass_cycles = 32;
  FaultSimOptions without;
  without.cycles = 256;
  without.prepass_cycles = 0;
  const auto r1 = fsim.run(u.faults, stim, with_prepass);
  const auto r2 = fsim.run(u.faults, stim, without);
  ASSERT_EQ(r1.first_detect.size(), r2.first_detect.size());
  for (std::size_t i = 0; i < r1.first_detect.size(); ++i) {
    EXPECT_EQ(r1.first_detect[i], r2.first_detect[i])
        << describeFault(nl, u.faults[i]);
  }
}

TEST(SeqFaultSim, StuckEnableNeverCounts) {
  const Netlist nl = makeCounterCircuit();
  // en stem s-a-0: counter never advances; q outputs diff from good machine.
  const Fault f{nl.primaryInputs()[0], Fault::kNoGate, 0, FaultKind::kSa0};
  SeqFaultSim fsim(nl);
  std::vector<std::uint64_t> stim(16, 1);
  FaultSimOptions opts;
  opts.cycles = 16;
  opts.prepass_cycles = 0;
  const auto r = fsim.run(std::span<const Fault>(&f, 1), stim, opts);
  ASSERT_EQ(r.first_detect.size(), 1u);
  // Good machine shows q=1 after the first edge; faulty stays 0. The diff
  // is visible from cycle 1 on.
  EXPECT_EQ(r.first_detect[0], 1);
}

TEST(SeqFaultSim, TransitionFaultSlowerThanStuck) {
  const Netlist nl = makeCounterCircuit();
  const FaultUniverse u = enumerateStuckAt(nl);
  const auto tdf = toTransitionFaults(u.faults);
  SeqFaultSim fsim(nl);
  std::vector<std::uint64_t> stim(128, 1);
  FaultSimOptions opts;
  opts.cycles = 128;
  opts.prepass_cycles = 0;
  const auto rs = fsim.run(u.faults, stim, opts);
  const auto rt = fsim.run(tdf, stim, opts);
  // Transition faults need an activation edge on top of propagation, so
  // coverage can only be <= the stuck-at coverage on this stimulus.
  EXPECT_LE(rt.detected, rs.detected);
  EXPECT_GT(rt.coverage(), 50.0);
}

TEST(SeqFaultSim, WindowMaskMarksDetectionWindows) {
  const Netlist nl = makeCounterCircuit();
  const Fault f{nl.primaryInputs()[0], Fault::kNoGate, 0, FaultKind::kSa0};
  SeqFaultSim fsim(nl);
  std::vector<std::uint64_t> stim(64, 1);
  FaultSimOptions opts;
  opts.cycles = 64;
  opts.windows = 8;
  const auto r = fsim.run(std::span<const Fault>(&f, 1), stim, opts);
  ASSERT_EQ(r.window_mask.size(), 1u);
  // The stuck enable diverges in (almost) every window.
  EXPECT_GE(std::popcount(r.window_mask[0]), 7);
}

TEST(SeqFaultSim, MisrDetectionTracksOutputDetection) {
  const Netlist nl = makeCounterCircuit();
  const FaultUniverse u = enumerateStuckAt(nl);
  SeqFaultSim fsim(nl);
  std::vector<std::uint64_t> stim(128, 1);
  FaultSimOptions opts;
  opts.cycles = 128;
  opts.prepass_cycles = 0;
  MisrSpec misr;
  misr.width = 16;
  misr.poly = 0b0000000000101101;  // x^16+x^5+x^3+x^2+1 coefficient mask
  misr.poly |= 1;
  misr.feeds.resize(16);
  const auto& pos = nl.primaryOutputs();
  for (std::size_t i = 0; i < pos.size(); ++i) {
    misr.feeds[i % 16].push_back(pos[i]);
  }
  opts.misr = misr;
  const auto r = fsim.run(u.faults, stim, opts);
  std::size_t misr_detected = 0;
  for (std::size_t i = 0; i < u.faults.size(); ++i) {
    if (r.misr_detect[i]) {
      ++misr_detected;
      // MISR detection implies output detection (no false positives).
      EXPECT_GE(r.first_detect[i], 0);
    }
  }
  // Aliasing is possible but rare: expect nearly all detected faults to
  // also differ in the MISR.
  EXPECT_GE(misr_detected + 2, r.detected);
}

TEST(FaultSimOptions, MoreThan64WindowsThrowOnEveryEngine) {
  const Netlist seq_nl = makeCounterCircuit();
  const FaultUniverse seq_u = enumerateStuckAt(seq_nl);
  SeqFaultSim seq(seq_nl);
  std::vector<std::uint64_t> stim(128, 1);
  FaultSimOptions seq_opts;
  seq_opts.cycles = 128;

  const Netlist comb_nl = makeSmallComb();
  const FaultUniverse comb_u = enumerateStuckAt(comb_nl);
  CombFaultSim comb(comb_nl, comb_nl.primaryInputs(),
                    comb_nl.primaryOutputs());
  const RandomPatternSource source(7, comb_nl.primaryInputs().size(), 128);
  FaultSimOptions comb_opts;
  comb_opts.cycles = 128;

  ShardedFaultSim sharded(
      seq, FsimBackendOptions{.backend = FsimBackend::kThreaded,
                              .num_workers = 2});
  const CyclePatternSource cycle_source(stim, seq_nl.primaryInputs().size());

  for (const int windows : {65, 64}) {
    seq_opts.windows = comb_opts.windows = windows;
    if (windows > kMaxWindows) {
      EXPECT_THROW((void)seq.run(seq_u.faults, stim, seq_opts),
                   std::invalid_argument);
      EXPECT_THROW((void)comb.run(comb_u.faults, source, comb_opts),
                   std::invalid_argument);
      EXPECT_THROW((void)sharded.run(seq_u.faults, cycle_source, seq_opts),
                   std::invalid_argument);
      continue;
    }
    const auto rs = seq.run(seq_u.faults, stim, seq_opts);
    EXPECT_EQ(rs.window_mask.size(), seq_u.faults.size());
    const auto rc = comb.run(comb_u.faults, source, comb_opts);
    EXPECT_EQ(rc.window_mask.size(), comb_u.faults.size());
    const auto rsh = sharded.run(seq_u.faults, cycle_source, seq_opts);
    EXPECT_EQ(rsh.window_mask, rs.window_mask);
  }
}

TEST(FaultSimOptions, LadderStagesFollowTheOneFullLengthRule) {
  FaultSimOptions o;
  o.prepass_cycles = 256;
  EXPECT_EQ(ladderStages(o, 4096), (std::vector<int>{256, 1024, 4096}));
  EXPECT_EQ(ladderStages(o, 1024), (std::vector<int>{256, 1024}));
  EXPECT_EQ(ladderStages(o, 256), (std::vector<int>{256}));
  EXPECT_EQ(ladderStages(o, 100), (std::vector<int>{100}));
  // 256 * 4^11 = 2^30 is the last stage below INT_MAX; 4 * 2^30 overflows.
  const std::vector<int> longest = ladderStages(o, INT_MAX);
  EXPECT_EQ(longest.size(), 13u);
  EXPECT_EQ(longest[11], 1 << 30);
  EXPECT_EQ(longest.back(), INT_MAX);
  // Anything recorded past first detections, no dropping, or no prepass:
  // one full-length stage.
  for (int mode = 0; mode < 5; ++mode) {
    FaultSimOptions full = o;
    if (mode == 0) full.windows = 4;
    if (mode == 1) full.misr = MisrSpec{};
    if (mode == 2) full.record_detections = 1;
    if (mode == 3) full.drop_detected = false;
    if (mode == 4) full.prepass_cycles = 0;
    EXPECT_EQ(ladderStages(full, 4096), (std::vector<int>{4096})) << mode;
  }
}

}  // namespace
}  // namespace corebist
