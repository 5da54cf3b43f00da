// Self-healing campaign execution: the failpoint registry (matching, spec
// parsing, env arming), kResilient retry/respawn/degradation —
// byte-identical to the serial engines under every injected failure
// schedule that eventually succeeds, including full ladder descents — and
// the campaign service's channel-retry / quarantine policy: a persistently
// failing core is excluded with CoreVerdict::kQuarantined while every other
// core's report slice stays field-identical to a healthy run, and a
// transient channel failure is invisible in the campaign fingerprint. A
// service campaign whose tenant abandoned its report stream survives the
// stream's failed writes and keeps its fingerprint, and a core attached
// after the service was built is tested like the others (checked in a
// forked child under a deadline, since the failure mode is a hang).
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <memory>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/session_channel.hpp"
#include "core/soc.hpp"
#include "fault/backend.hpp"
#include "fault/comb_fsim.hpp"
#include "fault/failpoint.hpp"
#include "fault/fault.hpp"
#include "fault/sharded_fsim.hpp"
#include "fixtures.hpp"
#include "service/service.hpp"

namespace corebist {
namespace {

using fixtures::makeToyModule;
using fixtures::randomComb;
using fixtures::runCampaign;

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

/// No unreaped children: success AND every failure/degradation path must
/// waitpid() the whole fleet.
bool noZombies() {
  const pid_t r = ::waitpid(-1, nullptr, WNOHANG);
  return r == -1 && errno == ECHILD;
}

FailpointAction action(FailpointAction::Kind k, std::uint64_t arg = 0) {
  FailpointAction a;
  a.kind = k;
  a.arg = arg;
  return a;
}

/// Every test starts and ends with a clean registry so armed entries can
/// never leak across tests.
class Resilience : public ::testing::Test {
 protected:
  void SetUp() override { FailpointRegistry::instance().disarmAll(); }
  void TearDown() override { FailpointRegistry::instance().disarmAll(); }
};

// ---------------------------------------------------------------------------
// FailpointRegistry units
// ---------------------------------------------------------------------------

TEST_F(Resilience, RegistryMatchesIndexSeqSkipAndCount) {
  auto& reg = FailpointRegistry::instance();
  // worker 1 only, skip the first matching hit, then fire twice.
  reg.arm("site.a", action(FailpointAction::Kind::kCrash),
          /*match_index=*/1, /*match_seq=*/-1, /*skip=*/1, /*count=*/2);

  EXPECT_FALSE(reg.fire("site.a", {0, 0}).has_value());  // wrong index
  EXPECT_FALSE(reg.fire("site.b", {1, 0}).has_value());  // wrong site
  EXPECT_FALSE(reg.fire("site.a", {1, 0}).has_value());  // consumed by skip
  const auto first = reg.fire("site.a", {1, 1});
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->kind, FailpointAction::Kind::kCrash);
  EXPECT_TRUE(reg.fire("site.a", {1, 2}).has_value());
  EXPECT_FALSE(reg.fire("site.a", {1, 3}).has_value());  // spent
  EXPECT_EQ(reg.firedCount("site.a"), 2u);
  EXPECT_EQ(reg.armedCount("site.a"), 0u);

  // seq matching and unlimited count.
  reg.arm("site.c", action(FailpointAction::Kind::kError),
          /*match_index=*/-1, /*match_seq=*/7, /*skip=*/0, /*count=*/-1);
  EXPECT_FALSE(reg.fire("site.c", {0, 6}).has_value());
  EXPECT_TRUE(reg.fire("site.c", {0, 7}).has_value());
  EXPECT_TRUE(reg.fire("site.c", {5, 7}).has_value());
  EXPECT_EQ(reg.armedCount("site.c"), 1u);  // unlimited entries never spend

  reg.disarm("site.c");
  EXPECT_FALSE(reg.fire("site.c", {0, 7}).has_value());
  // site.a's spent entry keeps its tally (and the armed flag) until
  // disarmed; disarmAll is what restores the zero-cost fast path.
  EXPECT_TRUE(failpointsArmed());
  reg.disarmAll();
  EXPECT_FALSE(failpointsArmed());
}

TEST_F(Resilience, SpecGrammarParsesAndMalformedSpecsThrow) {
  auto& reg = FailpointRegistry::instance();
  reg.armFromSpec(
      "process.worker.shard=crash:worker=1:shard=3;"
      "channel.attempt=error:core=2:count=-1;"
      "process.worker.reply=delay:ms=5:jitter=3;"
      "process.request.frame=bitflip:arg=200:skip=2");
  EXPECT_EQ(reg.armedCount("process.worker.shard"), 1u);
  EXPECT_EQ(reg.armedCount("channel.attempt"), 1u);

  EXPECT_FALSE(reg.fire("process.worker.shard", {1, 2}).has_value());
  EXPECT_TRUE(reg.fire("process.worker.shard", {1, 3}).has_value());
  EXPECT_TRUE(reg.fire("channel.attempt", {2, 9}).has_value());
  const auto delay = reg.fire("process.worker.reply", {0, 0});
  ASSERT_TRUE(delay.has_value());
  EXPECT_EQ(delay->kind, FailpointAction::Kind::kDelay);
  EXPECT_EQ(delay->delay_ms, 5);
  EXPECT_EQ(delay->jitter_ms, 3);

  EXPECT_THROW(reg.armFromSpec("=crash"), std::invalid_argument);
  EXPECT_THROW(reg.armFromSpec("site"), std::invalid_argument);
  EXPECT_THROW(reg.armFromSpec("site=explode"), std::invalid_argument);
  EXPECT_THROW(reg.armFromSpec("site=crash:bogus=1"), std::invalid_argument);
  EXPECT_THROW(reg.armFromSpec("site=crash:worker=abc"),
               std::invalid_argument);
}

TEST_F(Resilience, EnvSpecArmsTheRegistry) {
  ASSERT_EQ(::setenv("COREBIST_FAILPOINTS",
                     "process.worker.shard=crash:worker=0", 1),
            0);
  auto& reg = FailpointRegistry::instance();
  EXPECT_EQ(reg.armFromEnv(), 1);
  EXPECT_EQ(reg.armedCount("process.worker.shard"), 1u);
  reg.disarmAll();
  ASSERT_EQ(::unsetenv("COREBIST_FAILPOINTS"), 0);
  EXPECT_EQ(reg.armFromEnv(), 0);
}

// ---------------------------------------------------------------------------
// kResilient: retry convergence and the degradation ladder
// ---------------------------------------------------------------------------

struct ResilientRig {
  Netlist nl;
  FaultUniverse u;
  RandomPatternSource patterns;
  FaultSimOptions opts;
  FaultSimResult ref;

  explicit ResilientRig(std::uint64_t seed)
      : nl(randomComb(seed, 10, 70)),
        u(enumerateStuckAt(nl)),
        patterns(seed ^ 0xBEEF, nl.primaryInputs().size(), 256),
        ref{} {
    opts.cycles = 256;
    opts.prepass_cycles = 0;
    CombFaultSim serial(nl, nl.primaryInputs(), nl.primaryOutputs());
    ref = serial.run(u.faults, patterns, opts);
  }

  [[nodiscard]] ShardedFaultSim make(FsimBackendOptions ropts) const {
    return ShardedFaultSim(
        CombFaultSim{nl, nl.primaryInputs(), nl.primaryOutputs()}, ropts);
  }
};

FsimBackendOptions fastRopts() {
  FsimBackendOptions r{.backend = FsimBackend::kResilient};
  r.num_workers = 2;
  r.shard_faults = 16;
  r.timeout_ms = 2'000;
  r.max_shard_retries = 3;
  r.backoff_base_ms = 1;
  return r;
}

TEST_F(Resilience, UnarmedRunIsByteIdenticalWithCleanLog) {
  const ResilientRig rig(31);
  ShardedFaultSim rsim = rig.make(fastRopts());
  const FaultSimResult r = rsim.run(rig.u.faults, rig.patterns, rig.opts);
  expectSameResult(rig.ref, r, "unarmed resilient vs serial");
  EXPECT_TRUE(rsim.lastLog().clean());
  EXPECT_EQ(rsim.lastLog().final_rung, 0);
  EXPECT_TRUE(noZombies());
}

TEST_F(Resilience, EverySingleFailureScheduleConvergesByteIdentically) {
  const ResilientRig rig(32);
  struct Schedule {
    const char* name;
    const char* site;
    FailpointAction a;
  };
  const std::vector<Schedule> schedules = {
      {"worker crash", "process.worker.shard",
       action(FailpointAction::Kind::kCrash)},
      {"worker hang past watchdog", "process.worker.shard",
       action(FailpointAction::Kind::kHang)},
      {"reply bitflip (checksum)", "process.worker.reply",
       action(FailpointAction::Kind::kBitflip, 211)},
      {"reply truncated", "process.worker.reply",
       action(FailpointAction::Kind::kTruncate, 8)},
      {"reply hang past watchdog", "process.worker.reply",
       action(FailpointAction::Kind::kHang)},
      {"request frame corrupted", "process.request.frame",
       action(FailpointAction::Kind::kBitflip, 300)},
  };
  for (const Schedule& s : schedules) {
    SCOPED_TRACE(s.name);
    FailpointRegistry::instance().disarmAll();
    FailpointRegistry::instance().arm(s.site, s.a, /*match_index=*/1);
    FsimBackendOptions ropts = fastRopts();
    ropts.timeout_ms = 400;  // keeps the hang schedule fast
    ShardedFaultSim rsim = rig.make(ropts);
    const FaultSimResult r = rsim.run(rig.u.faults, rig.patterns, rig.opts);
    expectSameResult(rig.ref, r, s.name);
    const ResilienceLog& log = rsim.lastLog();
    EXPECT_GE(log.retries, 1) << s.name;
    EXPECT_EQ(log.final_rung, 0) << s.name;  // recovered without degrading
    EXPECT_EQ(log.degradations, 0) << s.name;
    EXPECT_TRUE(noZombies()) << s.name;
  }
}

TEST_F(Resilience, RandomizedInjectionSchedulesConvergeByteIdentically) {
  const ResilientRig rig(33);
  FailpointAction reply_delay = action(FailpointAction::Kind::kDelay);
  reply_delay.delay_ms = 20;  // a slow reply, well inside the watchdog
  const std::vector<std::pair<const char*, FailpointAction>> menu = {
      {"process.worker.shard", action(FailpointAction::Kind::kCrash)},
      {"process.worker.reply", action(FailpointAction::Kind::kBitflip, 187)},
      {"process.worker.reply", action(FailpointAction::Kind::kTruncate, 12)},
      {"process.request.frame", action(FailpointAction::Kind::kBitflip, 260)},
      {"process.request.frame", action(FailpointAction::Kind::kShortWrite)},
      {"process.worker.reply", reply_delay},
      {"process.worker.reply", action(FailpointAction::Kind::kShortWrite)},
      {"process.worker.reply", action(FailpointAction::Kind::kCrash)},
  };
  // Together these seeds draw every menu entry at least once.
  for (const std::uint64_t seed : {41u, 42u, 43u, 44u, 53u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    FailpointRegistry::instance().disarmAll();
    const int entries = 1 + static_cast<int>(rng() % 3);
    for (int e = 0; e < entries; ++e) {
      const auto& [site, a] = menu[rng() % menu.size()];
      FailpointRegistry::instance().arm(
          site, a, /*match_index=*/static_cast<std::int64_t>(rng() % 2),
          /*match_seq=*/-1, /*skip=*/static_cast<int>(rng() % 3));
    }
    ShardedFaultSim rsim = rig.make(fastRopts());
    const FaultSimResult r = rsim.run(rig.u.faults, rig.patterns, rig.opts);
    expectSameResult(rig.ref, r, "randomized schedule");
    EXPECT_EQ(rsim.lastLog().final_rung, 0);
    EXPECT_TRUE(noZombies());
  }
}

TEST_F(Resilience, FlippedFrameLengthsRecoverWithoutWaitingForTheWatchdog) {
  // Bit 84 is bit 20 of a frame's length word. The header checksum catches
  // it before the length is used, so the shard is retried at once instead
  // of after the 60 s watchdog.
  const ResilientRig rig(39);
  for (const char* site : {"process.worker.reply", "process.request.frame"}) {
    SCOPED_TRACE(site);
    FailpointRegistry::instance().disarmAll();
    FailpointRegistry::instance().arm(
        site, action(FailpointAction::Kind::kBitflip, 84));
    FsimBackendOptions ropts = fastRopts();
    ropts.timeout_ms = 60'000;
    ShardedFaultSim rsim = rig.make(ropts);
    const auto t0 = std::chrono::steady_clock::now();
    const FaultSimResult r = rsim.run(rig.u.faults, rig.patterns, rig.opts);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    expectSameResult(rig.ref, r, site);
    EXPECT_GE(rsim.lastLog().retries, 1);
    EXPECT_EQ(rsim.lastLog().final_rung, 0);
    EXPECT_LT(seconds, 10.0);
    EXPECT_TRUE(noZombies());
  }
}

TEST_F(Resilience, PersistentWorkerFailureDegradesToThreadedByteIdentically) {
  const ResilientRig rig(34);
  // Every dispatch to every worker crashes: the process rung can never
  // finish a shard, so after the retry budget the supervisor must land the
  // campaign on the threaded rung with an identical result.
  FailpointRegistry::instance().arm("process.worker.shard",
                                    action(FailpointAction::Kind::kCrash),
                                    /*match_index=*/-1, /*match_seq=*/-1,
                                    /*skip=*/0, /*count=*/-1);
  FsimBackendOptions ropts = fastRopts();
  ropts.max_shard_retries = 2;
  ShardedFaultSim rsim = rig.make(ropts);
  const FaultSimResult r = rsim.run(rig.u.faults, rig.patterns, rig.opts);
  expectSameResult(rig.ref, r, "degraded-to-threaded vs serial");
  const ResilienceLog& log = rsim.lastLog();
  EXPECT_EQ(log.final_rung, 1);
  EXPECT_GE(log.degradations, 1);
  EXPECT_GE(log.retries, 3);  // 1 + max_shard_retries on the losing shard
  EXPECT_TRUE(noZombies());

  // The structured log serializes with stable keys for telemetry.
  const std::string json = log.toJson();
  EXPECT_NE(json.find("\"retries\""), std::string::npos);
  EXPECT_NE(json.find("\"final_rung\": \"threaded\""), std::string::npos);
  EXPECT_NE(json.find("\"events\""), std::string::npos);
}

TEST_F(Resilience, LadderFallsAllTheWayToSerialByteIdentically) {
  const ResilientRig rig(35);
  FailpointRegistry::instance().arm("process.worker.shard",
                                    action(FailpointAction::Kind::kCrash),
                                    /*match_index=*/-1, /*match_seq=*/-1,
                                    /*skip=*/0, /*count=*/-1);
  // The threaded rung is also made to fail (its own failpoint site), so
  // only the serial rung can finish the campaign.
  FailpointRegistry::instance().arm("resilient.rung",
                                    action(FailpointAction::Kind::kError),
                                    /*match_index=*/1);
  FsimBackendOptions ropts = fastRopts();
  ropts.max_shard_retries = 1;
  ShardedFaultSim rsim = rig.make(ropts);
  const FaultSimResult r = rsim.run(rig.u.faults, rig.patterns, rig.opts);
  expectSameResult(rig.ref, r, "degraded-to-serial vs serial");
  const ResilienceLog& log = rsim.lastLog();
  EXPECT_EQ(log.final_rung, 2);
  EXPECT_GE(log.degradations, 2);
  EXPECT_NE(log.toJson().find("\"final_rung\": \"serial\""),
            std::string::npos);
  EXPECT_TRUE(noZombies());
}

TEST_F(Resilience, DegradeDisabledRethrowsTheUnderlyingProcessError) {
  const ResilientRig rig(36);
  FailpointRegistry::instance().arm("process.worker.shard",
                                    action(FailpointAction::Kind::kCrash),
                                    /*match_index=*/-1, /*match_seq=*/-1,
                                    /*skip=*/0, /*count=*/-1);
  FsimBackendOptions ropts = fastRopts();
  ropts.max_shard_retries = 1;
  ropts.degrade_on_failure = false;
  ShardedFaultSim rsim = rig.make(ropts);
  try {
    (void)rsim.run(rig.u.faults, rig.patterns, rig.opts);
    FAIL() << "expected ProcessFsimError";
  } catch (const ProcessFsimError& e) {
    EXPECT_EQ(e.reason(), ProcessFsimError::Reason::kWorkerDied);
    EXPECT_NE(std::string(e.what()).find("retry budget"), std::string::npos);
  }
  // The log survives the throw: the caller can see what was attempted.
  EXPECT_GE(rsim.lastLog().retries, 2);
  EXPECT_EQ(rsim.lastLog().degradations, 0);
  EXPECT_TRUE(noZombies());
}

TEST_F(Resilience, EngineErrorsAreDeterministicAndNeverRetried) {
  const ResilientRig rig(37);
  FaultSimOptions bad = rig.opts;
  bad.misr = MisrSpec{};  // MISR compaction is invalid on the comb kernel
  ShardedFaultSim rsim = rig.make(fastRopts());
  EXPECT_THROW((void)rsim.run(rig.u.faults, rig.patterns, bad),
               std::invalid_argument);
  EXPECT_EQ(rsim.lastLog().retries, 0);  // rejection is not a retry case
  EXPECT_TRUE(noZombies());
}

// ---------------------------------------------------------------------------
// Scheduler quarantine: channel retry, exclusion, fingerprint stability
// ---------------------------------------------------------------------------

std::unique_ptr<Soc> makeSoc() {
  auto soc = std::make_unique<Soc>("resilience_soc");
  for (int c = 0; c < 6; ++c) {
    auto core = std::make_unique<WrappedCore>("toy" + std::to_string(c));
    core->addModule(makeToyModule(c));
    soc->attachCore(std::move(core));
  }
  soc->core(1).injectDefect(0, 3, GateType::kXnor);  // a real defect rides
  return soc;                                        // along with the chaos
}

TestPlan makePlan() { return TestPlan{}.withPatterns(300); }

void expectSameCore(const CoreReport& a, const CoreReport& b) {
  EXPECT_EQ(a.core_index, b.core_index);
  EXPECT_EQ(a.verdict, b.verdict);
  EXPECT_EQ(a.end_test_seen, b.end_test_seen);
  EXPECT_EQ(a.patterns, b.patterns);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.polls, b.polls);
  EXPECT_EQ(a.tap_clocks, b.tap_clocks);
  EXPECT_EQ(a.bist_cycles, b.bist_cycles);
  ASSERT_EQ(a.modules.size(), b.modules.size());
  for (std::size_t m = 0; m < a.modules.size(); ++m) {
    EXPECT_EQ(a.modules[m].signature, b.modules[m].signature);
    EXPECT_EQ(a.modules[m].golden, b.modules[m].golden);
  }
}

TEST_F(Resilience, PersistentChannelFailureQuarantinesOnlyThatCore) {
  auto healthy_soc = makeSoc();
  const SessionReport healthy = runCampaign(*healthy_soc, makePlan());

  // Core 3's channel fails on every protocol attempt, forever.
  FailpointRegistry::instance().arm("channel.attempt",
                                    action(FailpointAction::Kind::kError),
                                    /*match_index=*/3, /*match_seq=*/-1,
                                    /*skip=*/0, /*count=*/-1);
  auto soc = makeSoc();
  const SessionReport report = runCampaign(*soc, makePlan());

  const CoreReport* q = report.core(3);
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q->verdict, CoreVerdict::kQuarantined);
  EXPECT_FALSE(q->pass());
  EXPECT_EQ(q->channel_failures, 3);  // initial try + the service's 2 reopens
  EXPECT_TRUE(q->modules.empty());
  EXPECT_EQ(q->tap_clocks, 0u);  // never conclusively tested: no accounting
  EXPECT_EQ(q->attempts, 0);
  EXPECT_NE(q->summary().find("QUARANTINED"), std::string::npos);

  // Every OTHER core's report slice is field-identical to the healthy run.
  for (const int c : {0, 1, 2, 4, 5}) {
    SCOPED_TRACE("core " + std::to_string(c));
    ASSERT_NE(report.core(c), nullptr);
    ASSERT_NE(healthy.core(c), nullptr);
    expectSameCore(*healthy.core(c), *report.core(c));
  }

  // JSON carries the verdict and the failure count; the deterministic
  // fingerprint excludes channel_failures (an execution artifact).
  EXPECT_NE(report.toJson().find("\"verdict\": \"quarantined\""),
            std::string::npos);
  EXPECT_NE(report.toJson().find("\"channel_failures\": 3"),
            std::string::npos);
  EXPECT_EQ(report.fingerprint().find("channel_failures"), std::string::npos);
}

TEST_F(Resilience, QuarantineFingerprintIsShardingInvariant) {
  FailpointRegistry::instance().arm("channel.attempt",
                                    action(FailpointAction::Kind::kError),
                                    /*match_index=*/3, /*match_seq=*/-1,
                                    /*skip=*/0, /*count=*/-1);
  auto serial_soc = makeSoc();
  const std::string serial_fp =
      runCampaign(*serial_soc, makePlan()).fingerprint();
  EXPECT_NE(serial_fp.find("\"verdict\": \"quarantined\""), std::string::npos);
  for (const int workers : {3, 6}) {
    auto soc = makeSoc();
    const SessionReport report = runCampaign(*soc, makePlan(), workers);
    EXPECT_EQ(report.fingerprint(), serial_fp) << "workers=" << workers;
  }
}

TEST_F(Resilience, TransientChannelFailuresAreInvisibleInTheFingerprint) {
  auto healthy_soc = makeSoc();
  const SessionReport healthy = runCampaign(*healthy_soc, makePlan());

  // One failure at the attempt gate and one mid-protocol (poll loop): both
  // recovered by reopening a fresh channel, so the fingerprint — which
  // excludes channel_failures — equals the healthy run byte for byte.
  FailpointRegistry::instance().arm("channel.attempt",
                                    action(FailpointAction::Kind::kError),
                                    /*match_index=*/2);
  FailpointRegistry::instance().arm("channel.poll",
                                    action(FailpointAction::Kind::kError),
                                    /*match_index=*/4);
  auto soc = makeSoc();
  const SessionReport report = runCampaign(*soc, makePlan());
  EXPECT_EQ(report.fingerprint(), healthy.fingerprint());
  ASSERT_NE(report.core(2), nullptr);
  EXPECT_EQ(report.core(2)->channel_failures, 1);
  ASSERT_NE(report.core(4), nullptr);
  EXPECT_EQ(report.core(4)->channel_failures, 1);
}

TEST_F(Resilience, AbandonedStreamNeverFailsItsCampaign) {
  // The tenant closes its stream's reader before submitting, so the
  // stream's writes hit EPIPE on both service workers. SIGPIPE may not kill
  // the process, and the campaign ends as if it had no stream.
  const TestPlan plan = fixtures::makeMixedPlan();
  const CampaignServiceConfig cfg{.workers = 2};
  std::string reference;
  {
    auto soc = fixtures::makeToySoc("resilience_soc");
    CampaignService service(*soc, cfg);
    reference = service.await(service.submit(plan)).fingerprint();
  }

  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ::close(fds[0]);
  auto soc = fixtures::makeToySoc("resilience_soc");
  CampaignService service(*soc, cfg);
  SubmitOptions opts;
  opts.stream_fd = fds[1];
  const SessionReport report = service.await(service.submit(plan, opts));
  ::close(fds[1]);
  EXPECT_EQ(report.fingerprint(), reference);
  EXPECT_TRUE(noZombies());
}

TEST_F(Resilience, CoreAttachedAfterTheServiceWasBuiltIsTested) {
  // The service makes a tree's lock when a campaign first lays out a group
  // under that root, so a core attached between campaigns is served like
  // the others: a campaign over every core finishes, with the fingerprint
  // of a service built after the attach. It runs in a forked child under a
  // deadline, because the failure it guards against is a reactor that
  // never returns.
  const auto core = [](int twist) {
    auto c = std::make_unique<WrappedCore>("late" + std::to_string(twist));
    c->addModule(makeToyModule(twist));
    return c;
  };
  const auto two_core_soc = [&] {
    auto soc = std::make_unique<Soc>("late_soc");
    for (int c = 0; c < 2; ++c) (void)soc->attachCore(core(c));
    return soc;
  };
  const TestPlan plan = TestPlan{}.withPatterns(64);
  std::string reference;
  {
    auto soc = two_core_soc();
    (void)soc->attachCore(core(2));
    reference = runCampaign(*soc, plan).fingerprint();
  }

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    int code = 0;
    try {
      auto soc = two_core_soc();
      CampaignService service(*soc, CampaignServiceConfig{.workers = 1});
      (void)soc->attachCore(core(2));
      const SessionReport report = service.await(service.submit(plan));
      if (report.cores.size() != 3 || report.fingerprint() != reference) {
        code = 1;
      }
    } catch (...) {
      code = 2;
    }
    ::_exit(code);
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  int status = 0;
  pid_t reaped = 0;
  while ((reaped = ::waitpid(child, &status, WNOHANG)) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (reaped == 0) {
    ::kill(child, SIGKILL);
    (void)::waitpid(child, &status, 0);
    FAIL() << "the campaign over the late core did not finish in 20 s";
  }
  ASSERT_EQ(reaped, child);
  ASSERT_TRUE(WIFEXITED(status)) << "child killed by signal "
                                 << WTERMSIG(status);
  EXPECT_EQ(WEXITSTATUS(status), 0)
      << "1: the report differs from the reference, 2: the campaign threw";
}

// ---------------------------------------------------------------------------
// Chaos entry point: the CI matrix drives this suite via COREBIST_FAILPOINTS
// ---------------------------------------------------------------------------

TEST_F(Resilience, ChaosStyleSpecStillConvergesByteIdentically) {
  // Self-contained stand-in for the CI chaos job: arm the same kind of spec
  // the workflow exports, then require full byte-identity and a clean
  // process table. (The env-driven equivalent is ResilienceChaos below.)
  ASSERT_EQ(::setenv("COREBIST_FAILPOINTS",
                     "process.worker.shard=crash:count=3;"
                     "process.worker.reply=bitflip:arg=300:skip=1:count=2;"
                     "process.request.frame=shortwrite:count=-1",
                     1),
            0);
  EXPECT_EQ(FailpointRegistry::instance().armFromEnv(), 3);
  ASSERT_EQ(::unsetenv("COREBIST_FAILPOINTS"), 0);

  const ResilientRig rig(38);
  ShardedFaultSim rsim = rig.make(fastRopts());
  const FaultSimResult r = rsim.run(rig.u.faults, rig.patterns, rig.opts);
  expectSameResult(rig.ref, r, "env chaos spec vs serial");
  EXPECT_GE(rsim.lastLog().retries, 1);
  EXPECT_TRUE(noZombies());
}

/// The CI chaos matrix drives this suite: each test re-arms whatever
/// COREBIST_FAILPOINTS carries (the base fixture deliberately disarms the
/// registry, so chaos tests must opt back in) and then requires the same
/// invariants as a clean run — byte-identity, completion, no zombies — no
/// matter which injection schedule the job exported. Unset env = the tests
/// double as plain regression runs.
class ResilienceChaos : public ::testing::Test {
 protected:
  void SetUp() override {
    FailpointRegistry::instance().disarmAll();
    armed_ = FailpointRegistry::instance().armFromEnv();
  }
  void TearDown() override { FailpointRegistry::instance().disarmAll(); }
  int armed_ = 0;
};

TEST_F(ResilienceChaos, CampaignConvergesByteIdenticallyUnderEnvSchedule) {
  const ResilientRig rig(77);
  FsimBackendOptions ropts = fastRopts();
  ropts.timeout_ms = 500;  // hang schedules must resolve inside the job
  ropts.max_shard_retries = 4;
  ShardedFaultSim rsim = rig.make(ropts);
  const FaultSimResult r = rsim.run(rig.u.faults, rig.patterns, rig.opts);
  expectSameResult(rig.ref, r, "env-scheduled campaign vs serial");
  EXPECT_TRUE(noZombies());
}

TEST_F(ResilienceChaos, SocCampaignFingerprintSurvivesEnvSchedule) {
  // A campaign under the env schedule: its fingerprint must equal a
  // clean-registry run of the same plan.
  auto clean_soc = makeSoc();
  FailpointRegistry::instance().disarmAll();
  const TestPlan plan = makePlan();
  const std::string clean_fp = runCampaign(*clean_soc, plan).fingerprint();

  EXPECT_EQ(FailpointRegistry::instance().armFromEnv(), armed_);
  auto soc = makeSoc();
  const SessionReport report = runCampaign(*soc, plan);
  EXPECT_EQ(report.fingerprint(), clean_fp);
  EXPECT_TRUE(noZombies());
}

}  // namespace
}  // namespace corebist
