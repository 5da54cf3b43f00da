// Batched ATPG grading: the PODEM/LOS candidate-test phases of the full-scan
// drivers now run through FaultSim::run (VectorPatternSource batches, pair
// campaigns via FaultSimOptions::launch). This suite proves the batched
// drivers against hand-rolled per-fault references, pins determinism and
// thread-count invariance, and carries the regression tests for the
// aborted/detected double count and the >64-PI sequence overflow.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "atpg/atpg.hpp"
#include "atpg/podem.hpp"
#include "fault/comb_fsim.hpp"
#include "fault/fault.hpp"
#include "fault/parallel_fsim.hpp"
#include "fault/seq_fsim.hpp"
#include "fixtures.hpp"
#include "ldpc/gatelevel.hpp"
#include "netlist/builder.hpp"
#include "scan/scan.hpp"

namespace corebist {
namespace {

/// Random sequential module: a comb DAG over the PIs and register outputs,
/// with the registers fed back from DAG nets — scanning it gives the
/// randomized full-scan views the batched drivers are proved on.
Netlist randomSeqModule(std::uint64_t seed, int width, int state_bits,
                        int gates) {
  Netlist nl("randseq");
  Builder b(nl);
  const Bus x = b.input("x", width);
  const Bus st = b.state("st", state_bits);
  std::vector<NetId> pool(x.begin(), x.end());
  pool.insert(pool.end(), st.begin(), st.end());
  std::mt19937_64 rng(seed);
  for (int g = 0; g < gates; ++g) {
    const auto t = static_cast<GateType>(2 + rng() % 9);  // kBuf .. kMux2
    const NetId a = pool[rng() % pool.size()];
    const NetId bn = pool[rng() % pool.size()];
    const NetId s = pool[rng() % pool.size()];
    NetId out = kNullNet;
    switch (gateArity(t)) {
      case 1:
        out = nl.addGate1(t, a);
        break;
      case 2:
        out = nl.addGate2(t, a, bn);
        break;
      default:
        out = nl.addMux(a, bn, s);
        break;
    }
    pool.push_back(out);
  }
  Bus d(st.size());
  for (std::size_t k = 0; k < st.size(); ++k) {
    d[k] = pool[pool.size() - 1 - k];
  }
  b.connect(st, d);
  Bus outs(pool.end() - std::min<std::size_t>(6, pool.size()), pool.end());
  b.output("y", outs);
  nl.validate();
  return nl;
}

PatternBlock randomBlock(std::mt19937_64& rng, std::size_t width) {
  PatternBlock blk;
  blk.inputs.resize(width);
  for (auto& w : blk.inputs) w = rng();
  blk.count = 64;
  return blk;
}

/// Mirrors the driver's launch-on-shift successor (v2 = v1 shifted one
/// position down each chain, fresh scan-in bit, functional PIs held).
PatternBlock losSuccessor(const PatternBlock& v1, const ScanView& view,
                          std::mt19937_64& rng) {
  PatternBlock v2 = v1;
  std::size_t base = static_cast<std::size_t>(view.num_functional_inputs);
  for (const auto& chain : view.chains) {
    for (std::size_t k = chain.size(); k-- > 1;) {
      v2.inputs[base + k] = v1.inputs[base + k - 1];
    }
    if (!chain.empty()) v2.inputs[base] = rng();
    base += chain.size();
  }
  return v2;
}

/// The stuck-at random phase, one 64-pattern block at a time on the 64-lane
/// kernel: a per-fault detect() loop per block and a stall counter. Marks
/// `detected` (all clear on entry) and returns the patterns applied.
std::size_t referenceRandomPhase(const Netlist& scanned, const ScanView& view,
                                 std::span<const Fault> faults,
                                 const FullScanAtpgOptions& opts,
                                 std::vector<char>& detected) {
  CombFaultSimT<1> fsim(scanned, view.inputs, view.observed);
  const RandomPatternSource random(opts.seed, view.inputs.size(),
                                   opts.max_random_blocks * 64);
  std::size_t live = faults.size();
  std::size_t patterns = 0;
  int stall = 0;
  PatternBlock blk;
  for (int b = 0; b < opts.max_random_blocks && live > 0; ++b) {
    random.fill(64 * b, blk);
    fsim.loadBlock(blk);
    std::size_t newly = 0;
    for (std::size_t i = 0; i < faults.size(); ++i) {
      if (detected[i]) continue;
      if (fsim.detect(faults[i]).any()) {
        detected[i] = 1;
        ++newly;
        --live;
      }
    }
    patterns += 64;
    stall = newly == 0 ? stall + 1 : 0;
    if (stall >= opts.random_stall_blocks) break;
  }
  return patterns;
}

/// The pre-batching full-scan driver, replicated verbatim as the per-fault
/// baseline: 64-pattern pending blocks, a per-fault detect() loop per flush,
/// targets pre-marked detected on PODEM success.
FullScanAtpgResult referenceAtpg(const Netlist& scanned, const ScanView& view,
                                 std::span<const Fault> faults,
                                 const FullScanAtpgOptions& opts) {
  FullScanAtpgResult res;
  res.total_faults = faults.size();
  std::vector<char> detected(faults.size(), 0);
  std::mt19937_64 rng(opts.seed);
  res.patterns = referenceRandomPhase(scanned, view, faults, opts, detected);
  CombFaultSimT<1> confirm_fsim(scanned, view.inputs, view.observed);
  Podem podem(scanned, view.inputs, view.observed, opts.backtrack_limit);
  PatternBlock pending;
  pending.inputs.assign(view.inputs.size(), 0);
  int pending_count = 0;
  auto flushPending = [&] {
    if (pending_count == 0) return;
    pending.count = pending_count;
    confirm_fsim.loadBlock(pending);
    for (std::size_t i = 0; i < faults.size(); ++i) {
      if (detected[i]) continue;
      if (confirm_fsim.detect(faults[i]).any()) detected[i] = 1;
    }
    res.patterns += static_cast<std::size_t>(pending_count);
    pending_count = 0;
    for (auto& w : pending.inputs) w = 0;
  };
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (detected[i]) continue;
    const auto test = podem.generate(faults[i]);
    if (!test.has_value()) {
      ++res.aborted;
      continue;
    }
    for (std::size_t j = 0; j < test->size(); ++j) {
      const bool bit =
          (*test)[j] == Tv::kX ? (rng() & 1u) != 0 : (*test)[j] == Tv::k1;
      if (bit) pending.inputs[j] |= std::uint64_t{1} << pending_count;
    }
    detected[i] = 1;
    ++pending_count;
    if (pending_count == 64) flushPending();
  }
  flushPending();
  for (const char d : detected) {
    if (d) ++res.detected;
  }
  res.test_cycles = view.testCycles(res.patterns);
  return res;
}

/// The pre-batching transition driver, replicated verbatim: one hand-built
/// 64-pair block at a time on the 64-lane kernel with a per-fault loop.
FullScanAtpgResult referenceTransition(const Netlist& scanned,
                                       const ScanView& view,
                                       std::span<const Fault> tdf_faults,
                                       const FullScanAtpgOptions& opts) {
  FullScanAtpgResult res;
  res.total_faults = tdf_faults.size();
  CombFaultSimT<1> fsim(scanned, view.inputs, view.observed);
  std::vector<char> detected(tdf_faults.size(), 0);
  std::mt19937_64 rng(opts.seed ^ 0x7D0F0ull);
  std::size_t live = tdf_faults.size();
  int stall = 0;
  for (int blk = 0; blk < opts.max_random_blocks * 2 && live > 0; ++blk) {
    const PatternBlock v1 = randomBlock(rng, view.inputs.size());
    const PatternBlock v2 = losSuccessor(v1, view, rng);
    fsim.loadPairBlock(v1, v2);
    std::size_t newly = 0;
    for (std::size_t i = 0; i < tdf_faults.size(); ++i) {
      if (detected[i]) continue;
      if (fsim.detect(tdf_faults[i]).any()) {
        detected[i] = 1;
        ++newly;
        --live;
      }
    }
    res.patterns += 64;
    stall = newly == 0 ? stall + 1 : 0;
    if (stall >= opts.random_stall_blocks * 2) break;
  }
  for (const char d : detected) {
    if (d) ++res.detected;
  }
  res.test_cycles = view.testCyclesTransition(res.patterns);
  return res;
}

void expectSameOutcome(const FullScanAtpgResult& a,
                       const FullScanAtpgResult& b, const char* what) {
  EXPECT_EQ(a.total_faults, b.total_faults) << what;
  EXPECT_EQ(a.detected, b.detected) << what;
  EXPECT_EQ(a.aborted, b.aborted) << what;
  EXPECT_EQ(a.patterns, b.patterns) << what;
  EXPECT_EQ(a.test_cycles, b.test_cycles) << what;
  EXPECT_EQ(a.podem_calls, b.podem_calls) << what;
  EXPECT_EQ(a.batches, b.batches) << what;
}

TEST(VectorPatternSource, ServesAppendedPatternsAsBlocks) {
  const std::size_t width = 70;  // wider than one packed word
  VectorPatternSource src(width);
  std::mt19937_64 rng(41);
  std::vector<std::vector<std::uint8_t>> patterns;
  for (int p = 0; p < 130; ++p) {  // 2 full blocks + a 2-lane tail
    std::vector<std::uint8_t> bits(width);
    for (auto& v : bits) v = static_cast<std::uint8_t>(rng() & 1u);
    src.append(bits);
    patterns.push_back(bits);
  }
  ASSERT_EQ(src.patternCount(), 130);
  ASSERT_EQ(src.width(), width);
  PatternBlock blk;
  for (int start = 0; start < 130; start += 64) {
    src.fill(start, blk);
    const int n = std::min(64, 130 - start);
    ASSERT_EQ(blk.count, n);
    for (int k = 0; k < n; ++k) {
      for (std::size_t j = 0; j < width; ++j) {
        EXPECT_EQ((blk.inputs[j] >> k) & 1u,
                  patterns[static_cast<std::size_t>(start + k)][j])
            << "pattern " << start + k << " input " << j;
      }
    }
    // Tail lanes must be masked off, not stale.
    for (int k = n; k < 64; ++k) {
      for (std::size_t j = 0; j < width; ++j) {
        EXPECT_EQ((blk.inputs[j] >> k) & 1u, 0u);
      }
    }
  }
  // fillWide must decompose into the same per-64-lane fills.
  PatternBlock wide;
  src.fillWide(0, 4, wide);
  EXPECT_EQ(wide.count, 130);
  for (int start = 0; start < 130; start += 64) {
    src.fill(start, blk);
    for (std::size_t j = 0; j < width; ++j) {
      EXPECT_EQ(wide.word(j, start / 64), blk.inputs[j]);
    }
  }
  src.clear();
  EXPECT_EQ(src.patternCount(), 0);
}

TEST(VectorPatternSource, AppendBlockMatchesBitwiseAppend) {
  const std::size_t width = 9;
  std::mt19937_64 rng(7);
  PatternBlock blk = randomBlock(rng, width);
  blk.count = 50;  // partial block: lanes past 50 must not leak
  VectorPatternSource by_block(width);
  by_block.appendBlock(blk);
  VectorPatternSource by_bit(width);
  std::vector<std::uint8_t> bits(width);
  for (int k = 0; k < 50; ++k) {
    for (std::size_t j = 0; j < width; ++j) {
      bits[j] = static_cast<std::uint8_t>((blk.inputs[j] >> k) & 1u);
    }
    by_bit.append(bits);
  }
  ASSERT_EQ(by_block.patternCount(), by_bit.patternCount());
  PatternBlock a;
  PatternBlock b;
  by_block.fill(0, a);
  by_bit.fill(0, b);
  EXPECT_EQ(a.inputs, b.inputs);
  EXPECT_EQ(a.count, b.count);
}

TEST(PairCampaign, RunMatchesHandRolledPairBlockLoop) {
  for (const std::uint64_t seed : {11u, 22u, 33u}) {
    const Netlist nl = randomSeqModule(seed, 8, 10, 60);
    const Netlist scanned = buildScannedModule(nl);
    const ScanView view = makeScanView(scanned);
    const FaultUniverse u = enumerateStuckAt(scanned);
    const auto tdf = toTransitionFaults(u.faults);

    const int blocks = 5;
    std::mt19937_64 rng(seed ^ 0xFACE);
    VectorPatternSource launch(view.inputs.size());
    VectorPatternSource capture(view.inputs.size());
    std::vector<PatternBlock> v1s;
    std::vector<PatternBlock> v2s;
    for (int b = 0; b < blocks; ++b) {
      v1s.push_back(randomBlock(rng, view.inputs.size()));
      v2s.push_back(losSuccessor(v1s.back(), view, rng));
      launch.appendBlock(v1s.back());
      capture.appendBlock(v2s.back());
    }

    // Reference: block-at-a-time pair loop without dropping, recording the
    // first detecting pair per fault.
    CombFaultSimT<1> ref(scanned, view.inputs, view.observed);
    std::vector<std::int32_t> first(tdf.size(), -1);
    for (int b = 0; b < blocks; ++b) {
      ref.loadPairBlock(v1s[static_cast<std::size_t>(b)],
                        v2s[static_cast<std::size_t>(b)]);
      for (std::size_t i = 0; i < tdf.size(); ++i) {
        if (first[i] >= 0) continue;
        const auto det = ref.detect(tdf[i]);
        if (det.any()) first[i] = 64 * b + det.firstLane();
      }
    }

    FaultSimOptions fopts;
    fopts.cycles = capture.patternCount();
    fopts.prepass_cycles = 0;
    fopts.launch = &launch;
    // Narrow kernel, wide kernel and the threaded orchestrator must all
    // agree with the hand-rolled loop.
    CombFaultSimT<1> narrow(scanned, view.inputs, view.observed);
    EXPECT_EQ(narrow.run(tdf, capture, fopts).first_detect, first);
    CombFaultSim wide(scanned, view.inputs, view.observed);
    EXPECT_EQ(wide.run(tdf, capture, fopts).first_detect, first);
    ParallelFsimOptions popts;
    popts.num_threads = 4;
    ParallelFaultSim par(wide, popts);
    EXPECT_EQ(par.run(tdf, capture, fopts).first_detect, first);
  }
}

TEST(PairCampaign, KindValidation) {
  const Netlist nl = randomSeqModule(5, 6, 6, 40);
  const Netlist scanned = buildScannedModule(nl);
  const ScanView view = makeScanView(scanned);
  const FaultUniverse u = enumerateStuckAt(scanned);
  const auto tdf = toTransitionFaults(u.faults);
  std::mt19937_64 rng(5);
  VectorPatternSource launch(view.inputs.size());
  VectorPatternSource capture(view.inputs.size());
  const PatternBlock v1 = randomBlock(rng, view.inputs.size());
  launch.appendBlock(v1);
  capture.appendBlock(losSuccessor(v1, view, rng));
  CombFaultSim fsim(scanned, view.inputs, view.observed);
  FaultSimOptions fopts;
  fopts.cycles = 64;
  fopts.prepass_cycles = 0;
  // Transition faults without a launch source are rejected...
  EXPECT_THROW((void)fsim.run(tdf, capture, fopts), std::invalid_argument);
  // ...stuck-at faults inside a pair campaign are rejected...
  fopts.launch = &launch;
  EXPECT_THROW((void)fsim.run(u.faults, capture, fopts),
               std::invalid_argument);
  // ...and the sequential engine has no pair path at all.
  SeqFaultSim seq(nl);
  EXPECT_THROW((void)seq.run(std::span<const Fault>(u.faults), capture, fopts),
               std::invalid_argument);
  // A width-mismatched launch source is rejected before any simulation.
  VectorPatternSource skinny(view.inputs.size() - 1);
  fopts.launch = &skinny;
  EXPECT_THROW((void)fsim.run(tdf, capture, fopts), std::invalid_argument);
}

TEST(BatchedAtpg, CoverageAtLeastPerFaultBaseline) {
  for (const std::uint64_t seed : {101u, 202u, 303u, 404u}) {
    const Netlist nl = randomSeqModule(seed, 7, 9, 55);
    const Netlist scanned = buildScannedModule(nl);
    const ScanView view = makeScanView(scanned);
    const FaultUniverse u = enumerateStuckAt(scanned);
    FullScanAtpgOptions opts;
    opts.max_random_blocks = 4;  // force a real PODEM phase
    opts.random_stall_blocks = 2;
    opts.backtrack_limit = 200;
    opts.podem_budget_seconds = 30.0;
    const FullScanAtpgResult batched =
        runFullScanAtpg(scanned, view, u.faults, opts);
    const FullScanAtpgResult baseline =
        referenceAtpg(scanned, view, u.faults, opts);
    EXPECT_GE(batched.detected, baseline.detected) << "seed " << seed;
    EXPECT_LE(batched.detected + batched.aborted, batched.total_faults)
        << "seed " << seed;
    EXPECT_GT(batched.podem_calls, 0u) << "seed " << seed;
  }
}

TEST(BatchedAtpg, DeterministicUnderFixedSeed) {
  const Netlist nl = randomSeqModule(77, 8, 8, 50);
  const Netlist scanned = buildScannedModule(nl);
  const ScanView view = makeScanView(scanned);
  const FaultUniverse u = enumerateStuckAt(scanned);
  FullScanAtpgOptions opts;
  opts.max_random_blocks = 4;
  opts.random_stall_blocks = 2;
  const auto a = runFullScanAtpg(scanned, view, u.faults, opts);
  const auto b = runFullScanAtpg(scanned, view, u.faults, opts);
  expectSameOutcome(a, b, "stuck-at rerun");
  const auto tdf = toTransitionFaults(u.faults);
  const auto ta = runFullScanTransition(scanned, view, tdf, opts);
  const auto tb = runFullScanTransition(scanned, view, tdf, opts);
  expectSameOutcome(ta, tb, "transition rerun");
}

/// Settings for the Table 3 LDPC full-scan views. The PODEM budget never
/// binds, even in sanitizer builds, so every outcome is a pure function of
/// the seed and thread counts cannot disagree.
FullScanAtpgOptions ldpcAtpgOptions() {
  FullScanAtpgOptions opts;
  opts.max_random_blocks = 8;
  opts.random_stall_blocks = 3;
  opts.podem_budget_seconds = 1e9;
  return opts;
}

void expectThreadCountInvariance(const Netlist& scanned, const ScanView& view,
                                 FullScanAtpgOptions opts) {
  const FaultUniverse u = enumerateStuckAt(scanned);
  const auto tdf = toTransitionFaults(u.faults);
  opts.num_threads = 1;
  const auto saf1 = runFullScanAtpg(scanned, view, u.faults, opts);
  const auto tdf1 = runFullScanTransition(scanned, view, tdf, opts);
  for (const int threads : {2, 4}) {
    opts.num_threads = threads;
    const auto safN = runFullScanAtpg(scanned, view, u.faults, opts);
    expectSameOutcome(saf1, safN, "stuck-at threads");
    const auto tdfN = runFullScanTransition(scanned, view, tdf, opts);
    expectSameOutcome(tdf1, tdfN, "transition threads");
  }
}

TEST(BatchedAtpg, ThreadCountInvariance) {
  const Netlist nl = randomSeqModule(88, 8, 10, 60);
  const Netlist scanned = buildScannedModule(nl);
  FullScanAtpgOptions opts;
  opts.max_random_blocks = 4;
  opts.random_stall_blocks = 2;
  expectThreadCountInvariance(scanned, makeScanView(scanned), opts);

  for (const auto& [module, chains] :
       {std::pair{ldpc::buildBitNode(), std::vector<int>{}},
        std::pair{ldpc::buildControlUnit(), std::vector<int>{14, 28}}}) {
    SCOPED_TRACE(module.name());
    const Netlist ldpc_scanned = buildScannedModule(module, chains);
    expectThreadCountInvariance(ldpc_scanned,
                                makeScanView(ldpc_scanned, chains),
                                ldpcAtpgOptions());
  }
}

TEST(BatchedAtpg, ScoapCutsPodemWorkOnControlUnit) {
  // Every undetected CONTROL_UNIT fault aborts rather than being proven
  // redundant, so the backtrack limit binds on the hard tail and guided
  // ordering can turn aborts into detections: SCOAP must keep coverage and
  // cut backtracks.
  const std::vector<int> chains = {14, 28};
  const Netlist scanned = buildScannedModule(ldpc::buildControlUnit(), chains);
  const ScanView view = makeScanView(scanned, chains);
  const FaultUniverse u = enumerateStuckAt(scanned);
  FullScanAtpgOptions base = ldpcAtpgOptions();
  base.backtrack_limit = 4096;
  const FullScanAtpgResult unguided =
      runFullScanAtpg(scanned, view, u.faults, base);

  FullScanAtpgOptions scoap = base;
  scoap.use_scoap = true;
  const FullScanAtpgResult guided =
      runFullScanAtpg(scanned, view, u.faults, scoap);
  EXPECT_GE(guided.detected, unguided.detected);
  EXPECT_LT(guided.backtracks, unguided.backtracks);
}

TEST(BatchedAtpg, TransitionMatchesPerBlockReferenceAtAnyBatchSize) {
  // The stall replay makes the batched LOS driver byte-identical to the old
  // block-at-a-time loop — at every batch size, including one that spans
  // the whole campaign.
  for (const std::uint64_t seed : {9u, 19u}) {
    const Netlist nl = randomSeqModule(seed, 8, 9, 55);
    const Netlist scanned = buildScannedModule(nl);
    const ScanView view = makeScanView(scanned);
    const FaultUniverse u = enumerateStuckAt(scanned);
    const auto tdf = toTransitionFaults(u.faults);
    FullScanAtpgOptions opts;
    opts.max_random_blocks = 6;
    opts.random_stall_blocks = 1;  // make the stall exit reachable
    const FullScanAtpgResult ref =
        referenceTransition(scanned, view, tdf, opts);
    for (const int batch : {64, 256, 4096}) {
      opts.batch_patterns = batch;
      const FullScanAtpgResult got =
          runFullScanTransition(scanned, view, tdf, opts);
      EXPECT_EQ(got.detected, ref.detected) << "batch " << batch;
      EXPECT_EQ(got.patterns, ref.patterns) << "batch " << batch;
      EXPECT_EQ(got.test_cycles, ref.test_cycles) << "batch " << batch;
    }
  }
}

TEST(BatchedAtpg, RandomPhaseMatchesPerBlockReferenceAtAnyBatchSize) {
  // With no PODEM budget only the random phase grades, so runFullScanAtpg
  // must match a block-at-a-time loop at every batch size, stall limit and
  // thread count. randomComb(4, 6, 12) detects every fault in
  // the first block, which ends the phase on an empty live list.
  const Netlist seq = randomSeqModule(9, 8, 9, 55);
  const struct {
    const char* name;
    Netlist netlist;
    bool all_in_block0;
  } inputs[] = {{"random module", buildScannedModule(seq), false},
                {"BIT_NODE", buildScannedModule(ldpc::buildBitNode()), false},
                {"randomComb(4, 6, 12)", fixtures::randomComb(4, 6, 12), true}};
  for (const auto& in : inputs) {
    SCOPED_TRACE(in.name);
    const ScanView view = makeScanView(in.netlist);
    const FaultUniverse u = enumerateStuckAt(in.netlist);
    FullScanAtpgOptions opts;
    opts.podem_budget_seconds = 0.0;
    for (const int stall : {1, 3}) {
      opts.random_stall_blocks = stall;
      std::vector<char> detected(u.faults.size(), 0);
      const std::size_t patterns =
          referenceRandomPhase(in.netlist, view, u.faults, opts, detected);
      const auto ref_detected = static_cast<std::size_t>(
          std::count(detected.begin(), detected.end(), 1));
      if (in.all_in_block0) {
        ASSERT_EQ(patterns, 64u);
        ASSERT_EQ(ref_detected, u.faults.size());
      }
      for (const int batch : {64, 256, 1000, 4096}) {
        for (const int threads : {1, 2}) {
          opts.batch_patterns = batch;
          opts.num_threads = threads;
          const FullScanAtpgResult got =
              runFullScanAtpg(in.netlist, view, u.faults, opts);
          SCOPED_TRACE("stall " + std::to_string(stall) + " batch " +
                       std::to_string(batch) + " threads " +
                       std::to_string(threads));
          EXPECT_EQ(got.patterns, patterns);
          EXPECT_EQ(got.detected, ref_detected);
          EXPECT_EQ(got.aborted, u.faults.size() - ref_detected);
        }
      }
    }
  }
}

TEST(BatchedAtpg, RandomStallBlocksBelowOneThrow) {
  const Netlist scanned = buildScannedModule(randomSeqModule(5, 6, 6, 40));
  const ScanView view = makeScanView(scanned);
  const FaultUniverse u = enumerateStuckAt(scanned);
  const auto tdf = toTransitionFaults(u.faults);
  for (const int stall : {0, -1}) {
    FullScanAtpgOptions opts;
    opts.random_stall_blocks = stall;
    EXPECT_THROW((void)runFullScanAtpg(scanned, view, u.faults, opts),
                 std::invalid_argument)
        << stall;
    EXPECT_THROW((void)runFullScanTransition(scanned, view, tdf, opts),
                 std::invalid_argument)
        << stall;
  }
}

TEST(BatchedAtpg, AbortedAndDetectedPartitionTheUniverse) {
  // backtrack_limit 0 makes PODEM give up on everything it cannot solve
  // without backtracking, while successful candidates keep detecting the
  // give-ups collaterally — the exact shape that used to double-count.
  for (const std::uint64_t seed : {3u, 13u, 23u}) {
    const Netlist nl = randomSeqModule(seed, 7, 8, 50);
    const Netlist scanned = buildScannedModule(nl);
    const ScanView view = makeScanView(scanned);
    const FaultUniverse u = enumerateStuckAt(scanned);
    FullScanAtpgOptions opts;
    opts.max_random_blocks = 2;
    opts.random_stall_blocks = 1;
    opts.backtrack_limit = 0;
    const auto res = runFullScanAtpg(scanned, view, u.faults, opts);
    EXPECT_LE(res.detected + res.aborted, res.total_faults) << "seed " << seed;
    EXPECT_GT(res.aborted, 0u) << "seed " << seed;
  }
}

TEST(BatchedAtpg, ZeroBudgetAbortsEveryPhase2Survivor) {
  const Netlist nl = randomSeqModule(31, 7, 8, 50);
  const Netlist scanned = buildScannedModule(nl);
  const ScanView view = makeScanView(scanned);
  const FaultUniverse u = enumerateStuckAt(scanned);
  FullScanAtpgOptions opts;
  opts.max_random_blocks = 2;
  opts.random_stall_blocks = 1;
  opts.podem_budget_seconds = 0.0;
  const auto res = runFullScanAtpg(scanned, view, u.faults, opts);
  // No candidate tests exist, so every random-phase survivor is aborted and
  // the two buckets exactly partition the universe.
  EXPECT_EQ(res.detected + res.aborted, res.total_faults);
  EXPECT_EQ(res.podem_calls, 0u);
  EXPECT_EQ(res.batches, 0u);
}

TEST(SeqAtpg, RejectsModulesWiderThan64Inputs) {
  // 70 PIs: `1 << j` on the one-word-per-cycle format would be UB. The
  // driver must fail loudly instead of aliasing inputs 64..69 onto 0..5.
  Netlist nl("wide");
  Builder b(nl);
  const Bus x = b.input("x", 70);
  Bus outs;
  for (int k = 0; k < 8; ++k) {
    outs.push_back(b.xor2(x[static_cast<std::size_t>(k)],
                          x[static_cast<std::size_t>(69 - k)]));
  }
  b.output("y", outs);
  nl.validate();
  const FaultUniverse u = enumerateStuckAt(nl);
  SeqAtpgOptions opts;
  opts.sequence_cycles = 64;
  opts.candidates = 1;
  EXPECT_THROW((void)runSequentialAtpg(nl, u.faults, opts),
               std::invalid_argument);
}

}  // namespace
}  // namespace corebist
