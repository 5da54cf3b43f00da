// The fork executor (FsimBackend::kResilient; most cases run its fail-fast
// policy, no retries and no ladder, so the first failure surfaces):
// byte-identical results to the serial engines on randomized netlists
// across 1/2/4 worker processes — plain dropping campaigns, transition pair
// campaigns (FaultSimOptions::launch), first-K dictionary records, and the
// windowed-MISR sequential path — plus the failure-path regressions driven
// through the failpoint registry: a crashed worker, a hung worker,
// truncated / bit-flipped frames (checksum detection) and dribbled partial
// writes must surface as structured ProcessFsimError (or be absorbed) with
// every child reaped (no hang, no zombies), and the backend factory: every
// backend at every lane width equals serial, on random netlists and the
// LDPC full-scan views, and an unsupported lane width throws. The wire
// itself: every reply shape round-trips within its exact bound, replies
// past the bound and overlong engine errors are refused or cut, fixed-seed
// mutants of request and reply payloads never make a parser read out of
// bounds or allocate past the bytes, and SIGPIPE guards on two threads
// never unprotect each other. Unknown fault kinds are engine errors on
// every engine and executor.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <memory>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "atpg/atpg.hpp"
#include "bist/misr.hpp"
#include "fault/backend.hpp"
#include "fault/comb_fsim.hpp"
#include "fault/failpoint.hpp"
#include "fault/fault.hpp"
#include "fault/process_wire.hpp"
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

/// The fork executor that fails the campaign on its first worker failure:
/// kResilient with no shard retries and no degradation ladder.
FsimBackendOptions failFastFork() {
  FsimBackendOptions o{.backend = FsimBackend::kResilient};
  o.max_shard_retries = 0;
  o.degrade_on_failure = false;
  return o;
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
      FsimBackendOptions popts = failFastFork();
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
    FsimBackendOptions popts = failFastFork();
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

  FaultSimOptions opts;
  opts.cycles = 128;
  opts.windows = 16;
  opts.misr = misr;
  const SeqFaultSim serial(nl);
  const FaultSimResult ref = serial.run(u.faults, stim, opts);

  for (const int workers : {2, 4}) {
    FsimBackendOptions popts = failFastFork();
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

  FsimBackendOptions popts = failFastFork();
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

  FsimBackendOptions popts = failFastFork();
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

  FsimBackendOptions popts = failFastFork();
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

  FsimBackendOptions popts = failFastFork();
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

  FsimBackendOptions popts = failFastFork();
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

  FsimBackendOptions popts = failFastFork();
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
  FsimBackendOptions popts = failFastFork();
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
  FsimBackendOptions popts = failFastFork();
  popts.num_workers = 2;
  ShardedFaultSim psim(
      CombFaultSim{nl, nl.primaryInputs(), nl.primaryOutputs()}, popts);
  EXPECT_THROW((void)psim.run(u.faults, patterns, o), std::invalid_argument);
  EXPECT_TRUE(noZombies());
}

TEST(ProcessFsimValidation, UnknownFaultKindsAreRejectedBeforeGrading) {
  // A kind byte outside the four FaultKind enumerators is an engine error,
  // never a stuck-at-0 in disguise: on the sequential engine, on a comb
  // pair campaign, and through both sharded executors. The fork wire
  // carries the byte to the worker unchecked; its engine rejects it, and
  // the engine-error reply is rethrown, never retried.
  const auto unknown = static_cast<FaultKind>(7);

  const Netlist seq = randomSeq(3, 7, 4, 50);
  std::vector<Fault> seq_faults = enumerateStuckAt(seq).faults;
  for (Fault& f : seq_faults) f.kind = unknown;
  std::mt19937_64 rng(0x7);
  std::vector<std::uint64_t> stim(256);
  for (auto& w : stim) w = rng() & 0x7F;
  const CyclePatternSource cycles(stim, seq.primaryInputs().size());
  FaultSimOptions so;
  so.cycles = 256;
  SeqFaultSim serial(seq);
  EXPECT_THROW((void)serial.run(seq_faults, cycles, so), std::invalid_argument);
  const FsimBackendOptions threaded{.backend = FsimBackend::kThreaded};
  for (FsimBackendOptions popts : {threaded, failFastFork()}) {
    popts.num_workers = 2;
    ShardedFaultSim psim(SeqFaultSim{seq}, popts);
    EXPECT_THROW((void)psim.run(seq_faults, cycles, so), std::invalid_argument)
        << fsimBackendName(popts.backend);
  }

  const Netlist comb = randomComb(4, 6, 12);
  std::vector<Fault> comb_faults = enumerateStuckAt(comb).faults;
  for (Fault& f : comb_faults) f.kind = unknown;
  const RandomPatternSource launch(5, comb.primaryInputs().size(), 64);
  const RandomPatternSource capture(6, comb.primaryInputs().size(), 64);
  FaultSimOptions po;
  po.cycles = 64;
  po.prepass_cycles = 0;
  po.launch = &launch;
  CombFaultSim pair(comb, comb.primaryInputs(), comb.primaryOutputs());
  EXPECT_THROW((void)pair.run(comb_faults, capture, po), std::invalid_argument);
  EXPECT_TRUE(noZombies());
}

/// An engine that breaks the reply contract the way a faulty engine would:
/// it throws `error` when that is set, and otherwise returns the wrapped
/// engine's result with every detection list one entry past
/// record_detections.
class RogueEngine final : public FaultSim {
 public:
  RogueEngine(const FaultSim& inner, std::string error)
      : inner_(inner.clone()), error_(std::move(error)) {}
  RogueEngine(const RogueEngine& other)
      : inner_(other.inner_->clone()), error_(other.error_) {}

  [[nodiscard]] const Netlist& netlist() const noexcept override {
    return inner_->netlist();
  }
  [[nodiscard]] FaultSimResult run(std::span<const Fault> faults,
                                   const PatternSource& patterns,
                                   const FaultSimOptions& opts) override {
    if (!error_.empty()) throw std::invalid_argument(error_);
    FaultSimResult r = inner_->run(faults, patterns, opts);
    for (auto& list : r.detect_patterns) {
      list.assign(static_cast<std::size_t>(opts.record_detections) + 1, 0);
    }
    return r;
  }
  [[nodiscard]] std::unique_ptr<FaultSim> clone() const override {
    return std::make_unique<RogueEngine>(*this);
  }

 private:
  std::unique_ptr<FaultSim> inner_;
  std::string error_;
};

TEST(ProcessFsimValidation, ReplyPastItsShardsBoundIsRefusedUnread) {
  // Lists one entry past record_detections make every reply longer than its
  // shard's exact bound: the parent refuses the header as a protocol error
  // instead of sizing a buffer from it.
  const Netlist nl = randomComb(8, 8, 30);
  const FaultUniverse u = enumerateStuckAt(nl);
  const RandomPatternSource patterns(2, nl.primaryInputs().size(), 64);
  FaultSimOptions o;
  o.cycles = 64;
  o.prepass_cycles = 0;
  o.record_detections = 2;
  FsimBackendOptions popts = failFastFork();
  popts.num_workers = 2;
  ShardedFaultSim psim(
      RogueEngine(CombFaultSim{nl, nl.primaryInputs(), nl.primaryOutputs()},
                  ""),
      popts);
  try {
    (void)psim.run(u.faults, patterns, o);
    FAIL() << "expected ProcessFsimError";
  } catch (const ProcessFsimError& e) {
    EXPECT_EQ(e.reason(), ProcessFsimError::Reason::kProtocol);
    EXPECT_NE(std::string(e.what()).find("announced"), std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(noZombies());
}

TEST(ProcessFsimValidation, LongEngineErrorsAreCutToTheCap) {
  const Netlist nl = randomComb(8, 8, 30);
  const FaultUniverse u = enumerateStuckAt(nl);
  const RandomPatternSource patterns(2, nl.primaryInputs().size(), 64);
  FaultSimOptions o;
  o.cycles = 64;
  o.prepass_cycles = 0;
  FsimBackendOptions popts = failFastFork();
  popts.num_workers = 2;
  const std::string what(100'000, 'x');
  ShardedFaultSim psim(
      RogueEngine(CombFaultSim{nl, nl.primaryInputs(), nl.primaryOutputs()},
                  what),
      popts);
  try {
    (void)psim.run(u.faults, patterns, o);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              what.substr(0, fsimwire::kMaxEngineErrorBytes));
  }
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
  opts.grading_backend = FsimBackend::kResilient;
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

  for (const FsimBackendOptions& policy :
       {FsimBackendOptions{}, FsimBackendOptions{.backend = FsimBackend::kThreaded},
        failFastFork(), FsimBackendOptions{.backend = FsimBackend::kResilient}}) {
    for (const int lw : {1, 2, 4, 8}) {
      FsimBackendOptions bopts = policy;
      bopts.lane_words = lw;
      bopts.num_workers = 2;
      const auto engine = makeCombFaultSim(nl, inputs, observed, bopts);
      const FaultSimResult r = engine->run(u.faults, patterns, o);
      SCOPED_TRACE(nl.name() + " " + fsimBackendName(bopts.backend) +
                   (bopts.degrade_on_failure ? "" : " fail-fast") + " W=" +
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

TEST(ProcessFsimBackend, UnsupportedLaneWidthThrows) {
  EXPECT_THROW((void)makeCombFaultSim(randomComb(1, 6, 10), {}, {},
                                      FsimBackendOptions{.lane_words = 3}),
               std::invalid_argument);
}

namespace wire = fsimwire;

/// The payload of a frame built by one of the wire serializers.
std::vector<std::uint8_t> payloadOf(const std::vector<std::uint8_t>& frame) {
  return {frame.begin() + static_cast<std::ptrdiff_t>(wire::kHeaderBytes),
          frame.end()};
}

/// Decode a reply payload the way the parent does: shard id, then rows.
bool parseReply(const std::vector<std::uint8_t>& payload, std::uint32_t shard,
                std::size_t rows, const FaultSimOptions& o,
                FaultSimResult& sub) {
  wire::Cursor c{payload.data(), payload.data() + payload.size()};
  return c.get<std::uint32_t>() == shard && wire::parseResult(c, rows, o, sub);
}

/// One campaign per reply shape: plain, windows, MISR, windows + MISR and
/// recording.
std::vector<std::pair<std::string, FaultSimOptions>> replyShapes(
    const Netlist& nl) {
  FaultSimOptions plain;
  plain.cycles = 96;
  plain.prepass_cycles = 0;
  std::vector<std::pair<std::string, FaultSimOptions>> shapes(5,
                                                              {"", plain});
  shapes[0].first = "plain";
  shapes[1].first = "windows";
  shapes[1].second.windows = 6;
  shapes[2].first = "misr";
  shapes[2].second.misr = makeMisrSpec(nl.primaryOutputs(), 8);
  shapes[3].first = "windows+misr";
  shapes[3].second.windows = 12;  // 96 signature bits: two words per fault
  shapes[3].second.misr = makeMisrSpec(nl.primaryOutputs(), 8);
  shapes[4].first = "recording";
  shapes[4].second.record_detections = 3;
  return shapes;
}

/// A sequential engine's result for a 40-fault shard, the one the wire
/// cases serialize.
struct WireShard {
  Netlist nl = randomSeq(0x5A, 7, 4, 50);
  std::vector<Fault> faults = enumerateStuckAt(nl).faults;
  std::vector<std::uint64_t> stim = std::vector<std::uint64_t>(96);

  WireShard() {
    faults.resize(std::min<std::size_t>(40, faults.size()));
    std::mt19937_64 rng(0x5EED);
    for (auto& w : stim) w = rng() & 0x7F;
  }
  [[nodiscard]] FaultSimResult grade(const FaultSimOptions& o) const {
    return SeqFaultSim(nl).run(faults, stim, o);
  }
};

TEST(ProcessWire, EveryReplyShapeRoundTripsWithinItsExactBound) {
  const WireShard shard;
  ASSERT_EQ(shard.faults.size(), 40u);
  for (const auto& [name, o] : replyShapes(shard.nl)) {
    SCOPED_TRACE(name);
    FaultSimResult ref = shard.grade(o);
    std::vector<std::uint8_t> frame;
    wire::serializeResult(frame, 7, ref);
    FaultSimResult back;
    ASSERT_TRUE(parseReply(payloadOf(frame), 7, 40, o, back));
    expectSameResult(ref, back, "decoded reply");
    EXPECT_LE(payloadOf(frame).size(), wire::maxReplyBytes(40, o));

    // With every detection list full the reply is exactly its bound.
    for (auto& list : ref.detect_patterns) {
      list.assign(static_cast<std::size_t>(o.record_detections), 5);
    }
    wire::serializeResult(frame, 7, ref);
    EXPECT_EQ(payloadOf(frame).size(), wire::maxReplyBytes(40, o));
    ASSERT_TRUE(parseReply(payloadOf(frame), 7, 40, o, back));
    expectSameResult(ref, back, "decoded full reply");
    if (ref.detect_patterns.empty()) continue;

    // One list past record_detections is refused even though the reply
    // still fits its bound.
    for (auto& list : ref.detect_patterns) list.clear();
    ref.detect_patterns[3].assign(
        static_cast<std::size_t>(o.record_detections) + 1, 5);
    wire::serializeResult(frame, 7, ref);
    EXPECT_LT(payloadOf(frame).size(), wire::maxReplyBytes(40, o));
    EXPECT_FALSE(parseReply(payloadOf(frame), 7, 40, o, back));
  }
}

/// A fixed-seed mutant of `in`: 1-4 flipped bits, a truncation, or 1-16
/// appended bytes.
std::vector<std::uint8_t> mutant(const std::vector<std::uint8_t>& in,
                                 std::mt19937_64& rng) {
  std::vector<std::uint8_t> m = in;
  switch (rng() % 3) {
    case 0:
      for (int k = 1 + static_cast<int>(rng() % 4); k > 0; --k) {
        const std::uint64_t bit = rng() % (m.size() * 8);
        m[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      }
      break;
    case 1:
      m.resize(rng() % m.size());
      break;
    default:
      for (int k = 1 + static_cast<int>(rng() % 16); k > 0; --k) {
        m.push_back(static_cast<std::uint8_t>(rng()));
      }
      break;
  }
  return m;
}

constexpr int kMutantsPerInput = 5'000;

/// Every mutant of a request payload either fails to parse or parses into
/// a request that serializes back to exactly those bytes; the fault list
/// never reserves more than the payload's bytes can hold.
void mutateRequest(const std::vector<std::uint8_t>& payload,
                   std::mt19937_64& rng) {
  int accepted = 0;
  for (int k = 0; k < kMutantsPerInput; ++k) {
    const std::vector<std::uint8_t> m = mutant(payload, rng);
    wire::Cursor c{m.data(), m.data() + m.size()};
    std::uint32_t shard_id = 0;
    wire::WireOptions w;
    std::vector<Fault> faults;
    const bool ok = wire::parseShardRequest(c, shard_id, w, faults);
    ASSERT_LE(faults.capacity() * wire::kFaultWireBytes, m.size());
    if (!ok) continue;
    ++accepted;
    std::vector<std::uint8_t> again;
    wire::serializeShardRequest(again, shard_id, w, faults);
    ASSERT_EQ(payloadOf(again), m);
  }
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, kMutantsPerInput);
}

/// Every mutant of a reply payload either fails to parse or decodes into
/// exactly the shape of FaultSimResult(rows, o), with each detection list
/// within record_detections, a payload within the reply bound, and bytes
/// that serialize back unchanged. No list outgrows the payload's bytes.
void mutateReply(const std::vector<std::uint8_t>& payload, std::size_t rows,
                 const FaultSimOptions& o, std::mt19937_64& rng) {
  const FaultSimResult shape(rows, o);
  int accepted = 0;
  for (int k = 0; k < kMutantsPerInput; ++k) {
    const std::vector<std::uint8_t> m = mutant(payload, rng);
    FaultSimResult sub;
    const bool ok = parseReply(m, 7, rows, o, sub);
    std::size_t listed = 0;
    for (const auto& list : sub.detect_patterns) listed += list.capacity();
    ASSERT_LE(listed * sizeof(std::uint32_t), m.size());
    if (!ok) continue;
    ++accepted;
    ASSERT_EQ(sub.total, rows);
    ASSERT_EQ(sub.first_detect.size(), shape.first_detect.size());
    ASSERT_EQ(sub.window_mask.size(), shape.window_mask.size());
    ASSERT_EQ(sub.misr_detect.size(), shape.misr_detect.size());
    ASSERT_EQ(sub.sig_words_per_fault, shape.sig_words_per_fault);
    ASSERT_EQ(sub.window_sig.size(), shape.window_sig.size());
    ASSERT_EQ(sub.detect_patterns.size(), shape.detect_patterns.size());
    for (const auto& list : sub.detect_patterns) {
      ASSERT_LE(list.size(), static_cast<std::size_t>(o.record_detections));
    }
    ASSERT_LE(m.size(), wire::maxReplyBytes(rows, o));
    std::vector<std::uint8_t> again;
    wire::serializeResult(again, 7, sub);
    ASSERT_EQ(payloadOf(again), m);
  }
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, kMutantsPerInput);
}

TEST(ProcessWire, MutatedPayloadsNeverOverreadOrOverallocate) {
  const WireShard shard;
  std::mt19937_64 rng(0xF0220);

  wire::WireOptions w;
  w.cycles = 96;
  w.inject_reply.kind = static_cast<std::uint8_t>(FailpointAction::Kind::kDelay);
  w.inject_reply.delay_ms = 3;
  std::vector<std::uint8_t> frame;
  for (const std::size_t n : {std::size_t{40}, std::size_t{3}}) {
    SCOPED_TRACE("request of " + std::to_string(n) + " faults");
    wire::serializeShardRequest(frame, 11, w,
                                std::span<const Fault>(shard.faults).first(n));
    ASSERT_NO_FATAL_FAILURE(mutateRequest(payloadOf(frame), rng));
  }

  for (const auto& [name, o] : replyShapes(shard.nl)) {
    SCOPED_TRACE(name);
    FaultSimResult r = shard.grade(o);
    wire::serializeResult(frame, 7, r);
    ASSERT_NO_FATAL_FAILURE(mutateReply(payloadOf(frame), 40, o, rng));
    if (r.detect_patterns.empty()) continue;
    // Multi-entry lists too: the sequential engine records one at most.
    for (std::size_t i = 0; i < r.detect_patterns.size(); ++i) {
      r.detect_patterns[i].assign(i % 4, static_cast<std::uint32_t>(i));
    }
    wire::serializeResult(frame, 7, r);
    ASSERT_NO_FATAL_FAILURE(mutateReply(payloadOf(frame), 40, o, rng));
  }
}

/// A child's body: `writes` writes to a pipe whose reader is closed, each
/// under its own guard, while a second thread opens and closes guards in a
/// loop. Exits 0 when every write failed with EPIPE.
[[noreturn]] void runGuardedWrites(int writes) {
  int fds[2];
  if (::pipe(fds) != 0) _exit(2);
  ::close(fds[0]);
  std::atomic<bool> done{false};
  std::thread churn([&done] {
    while (!done.load(std::memory_order_relaxed)) {
      const wire::ScopedSigpipeBlock guard;
    }
  });
  const char byte = 0;
  int epipe = 0;
  for (int i = 0; i < writes; ++i) {
    const wire::ScopedSigpipeBlock guard;
    if (::write(fds[1], &byte, 1) < 0 && errno == EPIPE) ++epipe;
  }
  done.store(true, std::memory_order_relaxed);
  churn.join();
  _exit(epipe == writes ? 0 : 3);
}

TEST(ProcessWire, SigpipeGuardsOnTwoThreadsNeverUnprotectEachOther) {
  // A guard that saved and restored the process-wide disposition could
  // restore SIG_DFL in the middle of the writer's scope, and SIGPIPE would
  // kill the process; so each trial runs in a forked child, whose death by
  // signal is the failure. Children run two at a time, so that each one's
  // threads mostly run in parallel: with guards that share the
  // disposition, about half the children die.
  constexpr int kChildren = 10;
  constexpr int kAtOnce = 2;
  constexpr int kWrites = 200'000;
  int killed = 0;
  for (int c = 0; c < kChildren; c += kAtOnce) {
    std::vector<pid_t> children;
    for (int k = 0; k < kAtOnce; ++k) {
      const pid_t pid = ::fork();
      ASSERT_GE(pid, 0);
      if (pid == 0) runGuardedWrites(kWrites);
      children.push_back(pid);
    }
    for (const pid_t pid : children) {
      int status = 0;
      ASSERT_EQ(::waitpid(pid, &status, 0), pid);
      if (WIFSIGNALED(status)) {
        ++killed;
        EXPECT_EQ(WTERMSIG(status), SIGPIPE);
      } else {
        EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
            << "wait status " << status;
      }
    }
  }
  EXPECT_EQ(killed, 0) << "of " << kChildren << " children";
}

}  // namespace
}  // namespace corebist
