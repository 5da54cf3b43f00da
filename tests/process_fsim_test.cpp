// The fork executor (FsimBackend::kProcess): byte-identical results to the
// serial engines on randomized netlists across 1/2/4 worker processes — plain
// dropping campaigns, transition pair campaigns (FaultSimOptions::launch),
// first-K dictionary records, and the windowed-MISR sequential path — plus
// the failure-path regressions driven through the failpoint registry: a
// crashed worker, a hung worker, truncated / bit-flipped frames (checksum
// detection) and dribbled partial writes must surface as structured
// ProcessFsimError (or be absorbed) with every child reaped (no hang, no
// zombies), and the backend factory: every backend at every lane width
// equals serial, on random netlists and the LDPC full-scan views, and the
// parse/name round-trip.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cerrno>
#include <chrono>
#include <random>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "atpg/atpg.hpp"
#include "fault/backend.hpp"
#include "fault/comb_fsim.hpp"
#include "fault/failpoint.hpp"
#include "fault/fault.hpp"
#include "fault/seq_fsim.hpp"
#include "fault/sharded_fsim.hpp"
#include "fixtures.hpp"
#include "ldpc/gatelevel.hpp"
#include "scan/scan.hpp"

namespace corebist {
namespace {

using fixtures::randomComb;
using fixtures::randomSeq;

void expectSameResult(const FaultSimResult& ref, const FaultSimResult& got,
                      const char* what) {
  EXPECT_EQ(ref.first_detect, got.first_detect) << what;
  EXPECT_EQ(ref.window_mask, got.window_mask) << what;
  EXPECT_EQ(ref.misr_detect, got.misr_detect) << what;
  EXPECT_EQ(ref.sig_words_per_fault, got.sig_words_per_fault) << what;
  EXPECT_EQ(ref.window_sig, got.window_sig) << what;
  EXPECT_EQ(ref.detect_patterns, got.detect_patterns) << what;
  EXPECT_EQ(ref.detected, got.detected) << what;
  EXPECT_EQ(ref.total, got.total) << what;
}

/// True when this process has no unreaped children: the orchestrator must
/// waitpid() every worker on success AND failure. The test binary spawns no
/// other children, so ECHILD is the only acceptable state here.
bool noZombies() {
  const pid_t r = ::waitpid(-1, nullptr, WNOHANG);
  return r == -1 && errno == ECHILD;
}

class ProcessEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProcessEquivalence, CombCampaignsMatchSerialByteForByte) {
  const Netlist nl = randomComb(GetParam(), 10, 70);
  const FaultUniverse u = enumerateStuckAt(nl);
  const RandomPatternSource patterns(GetParam() ^ 0xD00D,
                                     nl.primaryInputs().size(), 420);

  std::vector<FaultSimOptions> modes;
  {
    FaultSimOptions o;  // dropping campaign with a stage ladder
    o.cycles = 420;
    o.prepass_cycles = 64;
    modes.push_back(o);
    o.prepass_cycles = 0;  // single full-length stage
    modes.push_back(o);
    o.drop_detected = false;  // full-length, no dropping
    modes.push_back(o);
    o = FaultSimOptions{};  // windowed detection masks
    o.cycles = 420;
    o.prepass_cycles = 0;
    o.windows = 8;
    modes.push_back(o);
    o = FaultSimOptions{};  // first-K dictionary records
    o.cycles = 420;
    o.prepass_cycles = 0;
    o.record_detections = 3;
    modes.push_back(o);
  }

  CombFaultSim serial(nl, nl.primaryInputs(), nl.primaryOutputs());
  for (std::size_t m = 0; m < modes.size(); ++m) {
    const FaultSimResult ref = serial.run(u.faults, patterns, modes[m]);
    for (const int workers : {1, 2, 4}) {
      FsimBackendOptions popts{.backend = FsimBackend::kProcess};
      popts.num_workers = workers;
      popts.shard_faults = workers == 4 ? 17 : 63;  // odd shards too
      ShardedFaultSim psim(
          CombFaultSim{nl, nl.primaryInputs(), nl.primaryOutputs()}, popts);
      const FaultSimResult r = psim.run(u.faults, patterns, modes[m]);
      SCOPED_TRACE("mode " + std::to_string(m) + " workers " +
                   std::to_string(workers));
      expectSameResult(ref, r, "process vs serial");
    }
  }
  EXPECT_TRUE(noZombies());
}

TEST_P(ProcessEquivalence, TransitionPairCampaignMatchesSerial) {
  const Netlist nl = randomComb(GetParam() ^ 0x7DF0, 9, 60);
  const FaultUniverse u = enumerateStuckAt(nl);
  const std::vector<Fault> tdf = toTransitionFaults(u.faults);

  // Hand-built launch/capture pair streams, like the LOS driver's batches.
  std::mt19937_64 rng(GetParam() ^ 0xFA1);
  VectorPatternSource launch_src(nl.primaryInputs().size());
  VectorPatternSource capture_src(nl.primaryInputs().size());
  for (int b = 0; b < 3; ++b) {
    PatternBlock v1, v2;
    v1.inputs.resize(nl.primaryInputs().size());
    v2.inputs.resize(nl.primaryInputs().size());
    for (auto& w : v1.inputs) w = rng();
    for (auto& w : v2.inputs) w = rng();
    v1.count = v2.count = 64;
    launch_src.appendBlock(v1);
    capture_src.appendBlock(v2);
  }

  FaultSimOptions o;
  o.cycles = capture_src.patternCount();
  o.prepass_cycles = 0;
  o.launch = &launch_src;

  CombFaultSim serial(nl, nl.primaryInputs(), nl.primaryOutputs());
  const FaultSimResult ref = serial.run(tdf, capture_src, o);
  for (const int workers : {1, 2, 4}) {
    FsimBackendOptions popts{.backend = FsimBackend::kProcess};
    popts.num_workers = workers;
    popts.shard_faults = 21;
    ShardedFaultSim psim(
        CombFaultSim{nl, nl.primaryInputs(), nl.primaryOutputs()}, popts);
    const FaultSimResult r = psim.run(tdf, capture_src, o);
    SCOPED_TRACE("workers " + std::to_string(workers));
    expectSameResult(ref, r, "pair campaign process vs serial");
  }
  EXPECT_TRUE(noZombies());
}

TEST_P(ProcessEquivalence, SeqWindowedMisrMatchesSerial) {
  const Netlist nl = randomSeq(GetParam() ^ 0x51, 7, 4, 50);
  const FaultUniverse u = enumerateStuckAt(nl);
  std::mt19937_64 rng(GetParam() ^ 0xACE);
  std::vector<std::uint64_t> stim(128);
  for (auto& w : stim) w = rng() & ((std::uint64_t{1} << 7) - 1);
  const CyclePatternSource patterns(stim, nl.primaryInputs().size());

  MisrSpec misr;
  misr.width = 12;
  misr.poly = 0b100000101001ull | 1u;
  misr.feeds.resize(12);
  const auto& pos = nl.primaryOutputs();
  for (std::size_t i = 0; i < pos.size(); ++i) {
    misr.feeds[i % 12].push_back(pos[i]);
  }

  SeqFsimOptions opts;
  opts.cycles = 128;
  opts.windows = 16;
  opts.misr = misr;
  const SeqFaultSim serial(nl);
  const SeqFsimResult ref = serial.run(u.faults, stim, opts);

  for (const int workers : {2, 4}) {
    FsimBackendOptions popts{.backend = FsimBackend::kProcess};
    popts.num_workers = workers;
    popts.shard_faults = 29;
    ShardedFaultSim psim(SeqFaultSim{nl}, popts);
    const FaultSimResult r = psim.run(u.faults, patterns, opts);
    SCOPED_TRACE("workers " + std::to_string(workers));
    EXPECT_EQ(r.first_detect, ref.first_detect);
    EXPECT_EQ(r.window_mask, ref.window_mask);
    EXPECT_EQ(r.misr_detect, ref.misr_detect);
    EXPECT_EQ(r.sig_words_per_fault, ref.sig_words_per_fault);
    EXPECT_EQ(r.window_sig, ref.window_sig);
    EXPECT_EQ(r.detected, ref.detected);
  }
  EXPECT_TRUE(noZombies());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProcessEquivalence,
                         ::testing::Values(11, 22, 33));

/// Failure-path fixture: every test starts and ends with a clean failpoint
/// registry so an armed entry can never leak across tests (or into the
/// equivalence suites above when test order is shuffled).
class ProcessFsimFailure : public ::testing::Test {
 protected:
  void SetUp() override { FailpointRegistry::instance().disarmAll(); }
  void TearDown() override { FailpointRegistry::instance().disarmAll(); }

  static FailpointAction action(FailpointAction::Kind k,
                                std::uint64_t arg = 0) {
    FailpointAction a;
    a.kind = k;
    a.arg = arg;
    return a;
  }
};

TEST_F(ProcessFsimFailure, CrashedWorkerRaisesStructuredErrorWithoutZombies) {
  const Netlist nl = randomComb(5, 10, 80);
  const FaultUniverse u = enumerateStuckAt(nl);
  ASSERT_GE(u.faults.size(), 32u);
  const RandomPatternSource patterns(9, nl.primaryInputs().size(), 256);
  FaultSimOptions o;
  o.cycles = 256;
  o.prepass_cycles = 0;

  FsimBackendOptions popts{.backend = FsimBackend::kProcess};
  popts.num_workers = 2;
  popts.shard_faults = 8;  // many shards, so the crash lands mid-campaign
  // Worker 1 dies executing its first shard; the parent-side registry
  // consumes the entry at dispatch, so no other worker is ever affected.
  FailpointRegistry::instance().arm("process.worker.shard",
                                    action(FailpointAction::Kind::kCrash),
                                    /*match_index=*/1);
  ShardedFaultSim psim(
      CombFaultSim{nl, nl.primaryInputs(), nl.primaryOutputs()}, popts);
  try {
    (void)psim.run(u.faults, patterns, o);
    FAIL() << "expected ProcessFsimError";
  } catch (const ProcessFsimError& e) {
    EXPECT_EQ(e.reason(), ProcessFsimError::Reason::kWorkerDied);
    // Partial accounting of the failing stage.
    EXPECT_GT(e.shardsTotal(), 1u);
    EXPECT_LT(e.shardsCompleted(), e.shardsTotal());
    EXPECT_LE(e.detectedSoFar(), u.faults.size());
    EXPECT_NE(std::string(e.what()).find("worker"), std::string::npos);
  }
  EXPECT_EQ(FailpointRegistry::instance().firedCount("process.worker.shard"),
            1u);
  // Every child — including the crashed one — must have been reaped.
  EXPECT_TRUE(noZombies());

  // The failure is per-campaign: once the failpoint is disarmed the same
  // orchestrator config grades the campaign to the serial result.
  FailpointRegistry::instance().disarmAll();
  CombFaultSim serial(nl, nl.primaryInputs(), nl.primaryOutputs());
  const FaultSimResult ref = serial.run(u.faults, patterns, o);
  ShardedFaultSim retry(
      CombFaultSim{nl, nl.primaryInputs(), nl.primaryOutputs()}, popts);
  const FaultSimResult r = retry.run(u.faults, patterns, o);
  EXPECT_EQ(r.first_detect, ref.first_detect);
  EXPECT_EQ(r.detected, ref.detected);
  EXPECT_TRUE(noZombies());
}

TEST_F(ProcessFsimFailure, HungWorkerTimesOutStructuredNotForever) {
  const Netlist nl = randomComb(6, 10, 80);
  const FaultUniverse u = enumerateStuckAt(nl);
  const RandomPatternSource patterns(7, nl.primaryInputs().size(), 256);
  FaultSimOptions o;
  o.cycles = 256;
  o.prepass_cycles = 0;

  FsimBackendOptions popts{.backend = FsimBackend::kProcess};
  popts.num_workers = 2;
  popts.shard_faults = 8;
  popts.timeout_ms = 300;  // the watchdog under test
  FailpointRegistry::instance().arm("process.worker.shard",
                                    action(FailpointAction::Kind::kHang),
                                    /*match_index=*/0);
  ShardedFaultSim psim(
      CombFaultSim{nl, nl.primaryInputs(), nl.primaryOutputs()}, popts);
  const auto t0 = std::chrono::steady_clock::now();
  try {
    (void)psim.run(u.faults, patterns, o);
    FAIL() << "expected ProcessFsimError";
  } catch (const ProcessFsimError& e) {
    EXPECT_EQ(e.reason(), ProcessFsimError::Reason::kTimeout);
    EXPECT_GT(e.shardsTotal(), 0u);
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  // Structured timeout, not a hang: the watchdog fired near timeout_ms
  // (wide margin for slow CI runners, but far from "forever").
  EXPECT_LT(elapsed, 30.0);
  // The hung worker was SIGKILLed and reaped.
  EXPECT_TRUE(noZombies());
}

TEST_F(ProcessFsimFailure, BitflippedReplyIsCaughtByChecksumAsProtocolError) {
  const Netlist nl = randomComb(14, 10, 70);
  const FaultUniverse u = enumerateStuckAt(nl);
  const RandomPatternSource patterns(3, nl.primaryInputs().size(), 192);
  FaultSimOptions o;
  o.cycles = 192;
  o.prepass_cycles = 0;

  FsimBackendOptions popts{.backend = FsimBackend::kProcess};
  popts.num_workers = 2;
  popts.shard_faults = 16;
  // Flip a payload bit (bit 200 is past the 128-bit header) in one reply
  // frame: without the FNV-1a frame checksum this would silently corrupt
  // the merged detection data; with it the parent reports kProtocol.
  FailpointRegistry::instance().arm(
      "process.worker.reply", action(FailpointAction::Kind::kBitflip, 200));
  ShardedFaultSim psim(
      CombFaultSim{nl, nl.primaryInputs(), nl.primaryOutputs()}, popts);
  try {
    (void)psim.run(u.faults, patterns, o);
    FAIL() << "expected ProcessFsimError";
  } catch (const ProcessFsimError& e) {
    EXPECT_EQ(e.reason(), ProcessFsimError::Reason::kProtocol);
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos);
  }
  EXPECT_TRUE(noZombies());
}

TEST_F(ProcessFsimFailure, TruncatedReplySurfacesAsWorkerDeath) {
  const Netlist nl = randomComb(15, 10, 70);
  const FaultUniverse u = enumerateStuckAt(nl);
  const RandomPatternSource patterns(4, nl.primaryInputs().size(), 192);
  FaultSimOptions o;
  o.cycles = 192;
  o.prepass_cycles = 0;

  FsimBackendOptions popts{.backend = FsimBackend::kProcess};
  popts.num_workers = 2;
  popts.shard_faults = 16;
  popts.timeout_ms = 5'000;
  // The worker emits 8 bytes of one reply and exits: the parent sees a
  // short frame + EOF, never a hang.
  FailpointRegistry::instance().arm(
      "process.worker.reply", action(FailpointAction::Kind::kTruncate, 8));
  ShardedFaultSim psim(
      CombFaultSim{nl, nl.primaryInputs(), nl.primaryOutputs()}, popts);
  try {
    (void)psim.run(u.faults, patterns, o);
    FAIL() << "expected ProcessFsimError";
  } catch (const ProcessFsimError& e) {
    EXPECT_EQ(e.reason(), ProcessFsimError::Reason::kWorkerDied);
  }
  EXPECT_TRUE(noZombies());
}

TEST_F(ProcessFsimFailure, CorruptedRequestKillsWorkerNotCampaignIntegrity) {
  const Netlist nl = randomComb(16, 10, 70);
  const FaultUniverse u = enumerateStuckAt(nl);
  const RandomPatternSource patterns(5, nl.primaryInputs().size(), 192);
  FaultSimOptions o;
  o.cycles = 192;
  o.prepass_cycles = 0;

  FsimBackendOptions popts{.backend = FsimBackend::kProcess};
  popts.num_workers = 2;
  popts.shard_faults = 16;
  // Corrupt one request frame on the wire: the worker's checksum validation
  // must reject it and _exit rather than grade garbage faults.
  FailpointRegistry::instance().arm(
      "process.request.frame", action(FailpointAction::Kind::kBitflip, 300));
  ShardedFaultSim psim(
      CombFaultSim{nl, nl.primaryInputs(), nl.primaryOutputs()}, popts);
  try {
    (void)psim.run(u.faults, patterns, o);
    FAIL() << "expected ProcessFsimError";
  } catch (const ProcessFsimError& e) {
    EXPECT_EQ(e.reason(), ProcessFsimError::Reason::kWorkerDied);
  }
  EXPECT_TRUE(noZombies());
}

TEST_F(ProcessFsimFailure, DribbledRequestWritesAreAbsorbedByteIdentically) {
  const Netlist nl = randomComb(18, 10, 70);
  const FaultUniverse u = enumerateStuckAt(nl);
  const RandomPatternSource patterns(6, nl.primaryInputs().size(), 192);
  FaultSimOptions o;
  o.cycles = 192;
  o.prepass_cycles = 0;

  CombFaultSim serial(nl, nl.primaryInputs(), nl.primaryOutputs());
  const FaultSimResult ref = serial.run(u.faults, patterns, o);

  FsimBackendOptions popts{.backend = FsimBackend::kProcess};
  popts.num_workers = 2;
  popts.shard_faults = 16;
  // Every request frame is dribbled in 1-byte / 7-byte / rest chunks with
  // sleeps between: partial-write handling (EINTR-safe writeAll and the
  // worker's blocking readAll) must reassemble every frame exactly.
  FailpointRegistry::instance().arm("process.request.frame",
                                    action(FailpointAction::Kind::kShortWrite),
                                    /*match_index=*/-1, /*match_seq=*/-1,
                                    /*skip=*/0, /*count=*/-1);
  ShardedFaultSim psim(
      CombFaultSim{nl, nl.primaryInputs(), nl.primaryOutputs()}, popts);
  const FaultSimResult r = psim.run(u.faults, patterns, o);
  expectSameResult(ref, r, "short-write process vs serial");
  EXPECT_GT(FailpointRegistry::instance().firedCount("process.request.frame"),
            0u);
  EXPECT_TRUE(noZombies());
}

/// A process-backend run that arms one bit-flip at `site` and returns the
/// structured error it must raise, plus the wall time it took. Bit 84 is
/// bit 20 of the frame's length word: a header flip must be caught by the
/// header checksum at once, not by a watchdog (timeout_ms is 60 s here).
std::pair<ProcessFsimError::Reason, double> runWithHeaderFlip(
    const char* site) {
  const Netlist nl = randomComb(19, 10, 70);
  const FaultUniverse u = enumerateStuckAt(nl);
  const RandomPatternSource patterns(8, nl.primaryInputs().size(), 192);
  FaultSimOptions o;
  o.cycles = 192;
  o.prepass_cycles = 0;
  FsimBackendOptions popts{.backend = FsimBackend::kProcess};
  popts.num_workers = 2;
  popts.shard_faults = 16;
  popts.timeout_ms = 60'000;
  FailpointAction flip;
  flip.kind = FailpointAction::Kind::kBitflip;
  flip.arg = 84;
  FailpointRegistry::instance().arm(site, flip);
  ShardedFaultSim psim(
      CombFaultSim{nl, nl.primaryInputs(), nl.primaryOutputs()}, popts);
  const auto t0 = std::chrono::steady_clock::now();
  ProcessFsimError::Reason reason = ProcessFsimError::Reason::kTimeout;
  try {
    (void)psim.run(u.faults, patterns, o);
    ADD_FAILURE() << "expected ProcessFsimError";
  } catch (const ProcessFsimError& e) {
    reason = e.reason();
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return {reason, elapsed};
}

TEST_F(ProcessFsimFailure, FlippedReplyLengthIsAProtocolErrorNotAStall) {
  const auto [reason, seconds] = runWithHeaderFlip("process.worker.reply");
  EXPECT_EQ(reason, ProcessFsimError::Reason::kProtocol);
  EXPECT_LT(seconds, 10.0);
  EXPECT_TRUE(noZombies());
}

TEST_F(ProcessFsimFailure, FlippedRequestLengthKillsTheWorkerNotAStall) {
  // The worker checks the request header before sizing its buffer, so it
  // exits at once and the parent sees a dead worker, not a silent one.
  const auto [reason, seconds] = runWithHeaderFlip("process.request.frame");
  EXPECT_EQ(reason, ProcessFsimError::Reason::kWorkerDied);
  EXPECT_LT(seconds, 10.0);
  EXPECT_TRUE(noZombies());
}

TEST(ProcessFsimValidation, EngineErrorsSurfaceAsInvalidArgument) {
  // MISR compaction on the comb kernel is invalid; the worker's engine
  // rejects it and the parent must rethrow the engine's own error type,
  // after reaping the fleet.
  const Netlist nl = randomComb(8, 8, 30);
  const FaultUniverse u = enumerateStuckAt(nl);
  const RandomPatternSource patterns(2, nl.primaryInputs().size(), 64);
  FaultSimOptions o;
  o.cycles = 64;
  o.prepass_cycles = 0;
  o.misr = MisrSpec{};
  FsimBackendOptions popts{.backend = FsimBackend::kProcess};
  popts.num_workers = 2;
  ShardedFaultSim psim(
      CombFaultSim{nl, nl.primaryInputs(), nl.primaryOutputs()}, popts);
  EXPECT_THROW((void)psim.run(u.faults, patterns, o), std::invalid_argument);
  EXPECT_TRUE(noZombies());
}

TEST(ProcessFsimBackend, AtpgGradingOnProcessBackendMatchesThreaded) {
  const Netlist nl = randomSeq(88, 8, 10, 60);
  const Netlist scanned = buildScannedModule(nl);
  const ScanView view = makeScanView(scanned);
  const FaultUniverse u = enumerateStuckAt(scanned);
  const auto tdf = toTransitionFaults(u.faults);
  FullScanAtpgOptions opts;
  opts.max_random_blocks = 4;
  opts.random_stall_blocks = 2;
  opts.num_threads = 1;
  const auto saf_ref = runFullScanAtpg(scanned, view, u.faults, opts);
  const auto tdf_ref = runFullScanTransition(scanned, view, tdf, opts);

  opts.num_threads = 2;
  opts.grading_backend = FsimBackend::kProcess;
  const auto saf_p = runFullScanAtpg(scanned, view, u.faults, opts);
  EXPECT_EQ(saf_p.detected, saf_ref.detected);
  EXPECT_EQ(saf_p.aborted, saf_ref.aborted);
  EXPECT_EQ(saf_p.patterns, saf_ref.patterns);
  EXPECT_EQ(saf_p.batches, saf_ref.batches);
  const auto tdf_p = runFullScanTransition(scanned, view, tdf, opts);
  EXPECT_EQ(tdf_p.detected, tdf_ref.detected);
  EXPECT_EQ(tdf_p.patterns, tdf_ref.patterns);
  EXPECT_TRUE(noZombies());
}

/// Every backend at every lane width grades `nl`'s stuck-at universe to the
/// serial 64-lane result, which is returned.
FaultSimResult expectEveryBackendMatchesSerial(
    const Netlist& nl, std::span<const NetId> inputs,
    std::span<const NetId> observed, const PatternSource& patterns,
    const FaultSimOptions& o) {
  const FaultUniverse u = enumerateStuckAt(nl);
  FsimBackendOptions ref_opts;  // serial, 64-lane reference
  ref_opts.lane_words = 1;
  const auto ref_engine = makeCombFaultSim(nl, inputs, observed, ref_opts);
  const FaultSimResult ref = ref_engine->run(u.faults, patterns, o);

  for (const FsimBackend backend :
       {FsimBackend::kSerial, FsimBackend::kThreaded, FsimBackend::kProcess,
        FsimBackend::kResilient}) {
    for (const int lw : {1, 2, 4, 8}) {
      FsimBackendOptions bopts;
      bopts.backend = backend;
      bopts.lane_words = lw;
      bopts.num_workers = 2;
      const auto engine = makeCombFaultSim(nl, inputs, observed, bopts);
      const FaultSimResult r = engine->run(u.faults, patterns, o);
      SCOPED_TRACE(nl.name() + " " + fsimBackendName(backend) + " W=" +
                   std::to_string(lw));
      EXPECT_EQ(r.first_detect, ref.first_detect);
      EXPECT_EQ(r.detected, ref.detected);
    }
  }
  return ref;
}

TEST(ProcessFsimBackend, FactoryWrapsEveryBackendOverEveryLaneWidth) {
  const Netlist nl = randomComb(17, 9, 50);
  const RandomPatternSource patterns(4, nl.primaryInputs().size(), 192);
  FaultSimOptions o;
  o.cycles = 192;
  o.prepass_cycles = 0;
  expectEveryBackendMatchesSerial(nl, nl.primaryInputs(), nl.primaryOutputs(),
                                  patterns, o);

  // Every fault detects in the first 64-pattern block, so the comb kernel
  // stops on an empty live list long before its 1024-pattern budget.
  const Netlist early = randomComb(4, 6, 12);
  const RandomPatternSource early_patterns(4, early.primaryInputs().size(),
                                           1024);
  o.cycles = 1024;
  const FaultSimResult early_ref = expectEveryBackendMatchesSerial(
      early, early.primaryInputs(), early.primaryOutputs(), early_patterns, o);
  for (const std::int32_t fd : early_ref.first_detect) {
    EXPECT_TRUE(fd >= 0 && fd < 64) << fd;
  }

  // The Table 3 full-scan views of BIT_NODE and CONTROL_UNIT, graded full
  // length (no fault dropping) over 1024 random patterns, as dictionary and
  // diagnosis flows grade them.
  FaultSimOptions full;
  full.cycles = 1024;
  full.prepass_cycles = 0;
  full.drop_detected = false;
  const struct {
    Netlist module;
    std::vector<int> chains;
    std::uint64_t seed;
  } views[] = {{ldpc::buildBitNode(), {}, 0xB15D},
               {ldpc::buildControlUnit(), {14, 28}, 0xB15F}};
  for (const auto& v : views) {
    const Netlist scanned = buildScannedModule(v.module, v.chains);
    const ScanView view = makeScanView(scanned, v.chains);
    const RandomPatternSource random(v.seed, view.inputs.size(), 1024);
    expectEveryBackendMatchesSerial(scanned, view.inputs, view.observed,
                                    random, full);
  }
  EXPECT_TRUE(noZombies());
}

TEST(ProcessFsimBackend, NamesParseAndRoundTrip) {
  for (const FsimBackend b : {FsimBackend::kSerial, FsimBackend::kThreaded,
                              FsimBackend::kProcess, FsimBackend::kResilient}) {
    EXPECT_EQ(parseFsimBackend(fsimBackendName(b)), b);
  }
  EXPECT_THROW((void)parseFsimBackend("gpu"), std::invalid_argument);
  EXPECT_THROW((void)parseFsimBackend(""), std::invalid_argument);
  EXPECT_THROW((void)makeCombFaultSim(randomComb(1, 6, 10), {}, {},
                                      FsimBackendOptions{.lane_words = 3}),
               std::invalid_argument);
}

}  // namespace
}  // namespace corebist
