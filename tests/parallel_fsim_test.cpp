// ParallelFaultSim orchestration: byte-identical results to the serial
// engines on randomized netlists, under any thread count and shard size,
// with and without fault dropping, and the rung every run reports — plus
// PatternBlock lane-count hygiene and pattern-source determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <span>
#include <stdexcept>

#include "fault/comb_fsim.hpp"
#include "fault/fault.hpp"
#include "fault/parallel_fsim.hpp"
#include "fault/seq_fsim.hpp"
#include "fixtures.hpp"

namespace corebist {
namespace {

using fixtures::randomComb;
using fixtures::randomSeq;

std::vector<std::uint64_t> randomStimulus(std::uint64_t seed, int cycles,
                                          int width) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint64_t> stim(static_cast<std::size_t>(cycles));
  for (auto& w : stim) w = rng() & ((std::uint64_t{1} << width) - 1);
  return stim;
}

class ParallelEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParallelEquivalence, SeqShardsMatchSerialByteForByte) {
  const Netlist nl = randomSeq(GetParam(), 8, 5, 70);
  const FaultUniverse u = enumerateStuckAt(nl);
  const auto stim = randomStimulus(GetParam() ^ 0xBEEF, 192, 8);
  const CyclePatternSource patterns(stim, nl.primaryInputs().size());

  for (const bool drop : {true, false}) {
    FaultSimOptions opts;
    opts.cycles = static_cast<int>(stim.size());
    opts.prepass_cycles = 32;
    opts.drop_detected = drop;
    const SeqFaultSim serial(nl);
    const FaultSimResult ref = serial.run(u.faults, stim, opts);

    for (const int threads : {1, 4, 8}) {
      ParallelFsimOptions popts;
      popts.num_threads = threads;
      popts.shard_faults = threads == 8 ? 17 : 63;  // odd shards too
      ParallelFaultSim psim(SeqFaultSim{nl}, popts);
      const FaultSimResult r = psim.run(u.faults, patterns, opts);
      EXPECT_EQ(r.first_detect, ref.first_detect)
          << "threads=" << threads << " drop=" << drop;
      EXPECT_EQ(r.detected, ref.detected);
      EXPECT_EQ(r.total, ref.total);
    }
  }
}

TEST_P(ParallelEquivalence, CombShardsMatchSerialByteForByte) {
  const Netlist nl = randomComb(GetParam(), 10, 60);
  const FaultUniverse u = enumerateStuckAt(nl);
  const RandomPatternSource patterns(GetParam() ^ 0xD00D,
                                     nl.primaryInputs().size(), 256);

  for (const bool drop : {true, false}) {
    FaultSimOptions opts;
    opts.cycles = 256;
    opts.prepass_cycles = 64;
    opts.drop_detected = drop;
    CombFaultSim serial(nl, nl.primaryInputs(), nl.primaryOutputs());
    const FaultSimResult ref = serial.run(u.faults, patterns, opts);

    for (const int threads : {1, 4, 8}) {
      ParallelFsimOptions popts;
      popts.num_threads = threads;
      ParallelFaultSim psim(
          CombFaultSim{nl, nl.primaryInputs(), nl.primaryOutputs()}, popts);
      const FaultSimResult r = psim.run(u.faults, patterns, opts);
      EXPECT_EQ(r.first_detect, ref.first_detect)
          << "threads=" << threads << " drop=" << drop;
      EXPECT_EQ(r.detected, ref.detected);
    }
  }
}

TEST_P(ParallelEquivalence, WindowedMisrRecordsMatchSerial) {
  const Netlist nl = randomSeq(GetParam() ^ 0x51, 7, 4, 50);
  const FaultUniverse u = enumerateStuckAt(nl);
  const auto stim = randomStimulus(GetParam() ^ 0xACE, 128, 7);
  const CyclePatternSource patterns(stim, nl.primaryInputs().size());

  MisrSpec misr;
  misr.width = 12;
  misr.poly = 0b100000101001ull | 1u;
  misr.feeds.resize(12);
  const auto& pos = nl.primaryOutputs();
  for (std::size_t i = 0; i < pos.size(); ++i) {
    misr.feeds[i % 12].push_back(pos[i]);
  }

  FaultSimOptions opts;
  opts.cycles = 128;
  opts.windows = 16;
  opts.misr = misr;
  const SeqFaultSim serial(nl);
  const FaultSimResult ref = serial.run(u.faults, stim, opts);

  ParallelFsimOptions popts;
  popts.num_threads = 4;
  popts.shard_faults = 29;
  ParallelFaultSim psim(SeqFaultSim{nl}, popts);
  const FaultSimResult r = psim.run(u.faults, patterns, opts);

  EXPECT_EQ(r.first_detect, ref.first_detect);
  EXPECT_EQ(r.window_mask, ref.window_mask);
  EXPECT_EQ(r.misr_detect, ref.misr_detect);
  EXPECT_EQ(r.sig_words_per_fault, ref.sig_words_per_fault);
  EXPECT_EQ(r.window_sig, ref.window_sig);
}

TEST(ParallelFaultSimErrors, EngineErrorPropagatesAndEnginesSurviveIt) {
  // MISR compaction is invalid on the comb kernel: every worker's engine
  // rejects its first shard. The error must reach the caller after the
  // join, and the same object's reused engine clones must then grade a
  // valid campaign exactly like the serial engine.
  const Netlist nl = randomComb(55, 10, 60);
  const FaultUniverse u = enumerateStuckAt(nl);
  const RandomPatternSource patterns(0x5EED, nl.primaryInputs().size(), 256);
  ParallelFsimOptions popts;
  popts.num_threads = 4;
  popts.shard_faults = 4;
  ParallelFaultSim psim(
      CombFaultSim{nl, nl.primaryInputs(), nl.primaryOutputs()}, popts);

  FaultSimOptions bad;
  bad.cycles = 256;
  bad.misr = MisrSpec{};
  EXPECT_THROW((void)psim.run(u.faults, patterns, bad),
               std::invalid_argument);

  FaultSimOptions opts;
  opts.cycles = 256;
  opts.prepass_cycles = 64;
  CombFaultSim serial(nl, nl.primaryInputs(), nl.primaryOutputs());
  const FaultSimResult ref = serial.run(u.faults, patterns, opts);
  const FaultSimResult r = psim.run(u.faults, patterns, opts);
  EXPECT_EQ(r.first_detect, ref.first_detect);
  EXPECT_EQ(r.detected, ref.detected);
  EXPECT_EQ(r.total, ref.total);
}

TEST(ParallelFaultSimLog, EveryRunReportsTheThreadedRung) {
  // An empty campaign returns before any shard is cut, and must still say
  // which rung it ran on.
  const Netlist nl = randomComb(56, 8, 30);
  const FaultUniverse u = enumerateStuckAt(nl);
  const RandomPatternSource patterns(3, nl.primaryInputs().size(), 128);
  ParallelFaultSim psim(
      CombFaultSim{nl, nl.primaryInputs(), nl.primaryOutputs()},
      {.num_threads = 2});
  FaultSimOptions opts;
  opts.cycles = 128;
  const FaultSimResult empty = psim.run({}, patterns, opts);
  EXPECT_EQ(empty.total, 0u);
  EXPECT_EQ(psim.lastLog().final_rung, 1);
  EXPECT_STREQ(resilienceRungName(psim.lastLog().final_rung), "threaded");
  const FaultSimResult full = psim.run(u.faults, patterns, opts);
  EXPECT_EQ(full.total, u.faults.size());
  EXPECT_EQ(psim.lastLog().final_rung, 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelEquivalence,
                         ::testing::Values(11, 22, 33, 44));

TEST(PatternBlockLaneMask, ValidCountsProduceDenseMasks) {
  PatternBlock blk;
  blk.count = 64;
  EXPECT_EQ(blk.laneMask(), ~std::uint64_t{0});
  blk.count = 3;
  EXPECT_EQ(blk.laneMask(), 0b111u);
  blk.count = 1;
  EXPECT_EQ(blk.laneMask(), 0b1u);
}

TEST(PatternBlockLaneMask, OutOfRangeCountsAreClampedNotZeroed) {
  // Overflowing counts clamp to a full block; nonpositive counts clamp to
  // one lane — the old behavior silently returned an empty mask and ate
  // every detection. Debug builds assert instead (see death test below).
#ifdef NDEBUG
  PatternBlock blk;
  blk.count = 100;
  EXPECT_EQ(blk.laneMask(), ~std::uint64_t{0});
  blk.count = 0;
  EXPECT_EQ(blk.laneMask(), 1u);
  blk.count = -7;
  EXPECT_EQ(blk.laneMask(), 1u);
#else
  GTEST_SKIP() << "clamping is the release-mode fallback; this build asserts";
#endif
}

TEST(PatternBlockLaneMaskDeathTest, DebugBuildsAssertOnBadCount) {
  PatternBlock blk;
  blk.count = 0;
  EXPECT_DEBUG_DEATH((void)blk.laneMask(), "count out of");
}

TEST(RandomPatternSource, SameBlockSameBitsUnderAnySchedule) {
  const RandomPatternSource src(0xFACE, 12, 192);
  PatternBlock a, b;
  src.fill(128, a);  // out-of-order first touch
  src.fill(0, b);
  src.fill(128, b);
  EXPECT_EQ(a.inputs, b.inputs);
  EXPECT_EQ(a.count, b.count);
}

TEST(CyclePatternSource, TransposesPackedWordsIntoLanes) {
  const std::vector<std::uint64_t> words = {0b01, 0b10, 0b11};
  const CyclePatternSource src(words, 2);
  PatternBlock blk;
  src.fill(0, blk);
  ASSERT_EQ(blk.inputs.size(), 2u);
  EXPECT_EQ(blk.count, 3);
  EXPECT_EQ(blk.inputs[0], 0b101u);  // input 0 high in cycles 0 and 2
  EXPECT_EQ(blk.inputs[1], 0b110u);  // input 1 high in cycles 1 and 2
}

TEST(CombFaultSimRun, RejectsTransitionFaultsAndMisr) {
  const Netlist nl = randomComb(7, 6, 20);
  CombFaultSim fsim(nl, nl.primaryInputs(), nl.primaryOutputs());
  const RandomPatternSource patterns(1, nl.primaryInputs().size(), 64);
  FaultSimOptions opts;
  opts.cycles = 64;
  const Fault tdf{nl.primaryInputs()[0], Fault::kNoGate, 0,
                  FaultKind::kSlowRise};
  EXPECT_THROW((void)fsim.run(std::span<const Fault>(&tdf, 1), patterns,
                              opts),
               std::invalid_argument);
  opts.misr = MisrSpec{};
  EXPECT_THROW((void)fsim.run(std::span<const Fault>{}, patterns, opts),
               std::invalid_argument);
}

TEST(CombFaultSimRun, DictionaryRecordsFirstKAscending) {
  const Netlist nl = randomComb(99, 8, 40);
  const FaultUniverse u = enumerateStuckAt(nl);
  CombFaultSim fsim(nl, nl.primaryInputs(), nl.primaryOutputs());
  const RandomPatternSource patterns(3, nl.primaryInputs().size(), 256);
  FaultSimOptions opts;
  opts.cycles = 256;
  opts.prepass_cycles = 0;
  opts.record_detections = 4;
  const FaultSimResult r = fsim.run(u.faults, patterns, opts);
  ASSERT_EQ(r.detect_patterns.size(), u.faults.size());
  for (std::size_t i = 0; i < u.faults.size(); ++i) {
    const auto& list = r.detect_patterns[i];
    EXPECT_LE(list.size(), 4u);
    EXPECT_TRUE(std::is_sorted(list.begin(), list.end()));
    if (r.first_detect[i] >= 0) {
      ASSERT_FALSE(list.empty());
      EXPECT_EQ(static_cast<std::int32_t>(list.front()), r.first_detect[i]);
    } else {
      EXPECT_TRUE(list.empty());
    }
  }
}

}  // namespace
}  // namespace corebist
