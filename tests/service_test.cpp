// CampaignService: the resident multi-tenant engine. Pins fingerprints
// byte-identical across multi-tenant interleavings (pool sizes are pinned
// by tests/soc_scheduler_test.cpp); artifact reuse fingerprint-invisible;
// typed admission control that never blocks the reactor; observer detach
// on completion; streamed wire frames that reconstruct the report, carry
// the same events as the tenant's observer, never shear when campaigns
// share one descriptor, and end with exactly one terminal frame whatever
// the outcome; await() releasing every campaign record; an observer
// throwing from any event failing only its own campaign; and a
// multi-tenant soak that leaks neither threads nor campaigns. Runs under
// TSan in CI (no fork in this file) and under the chaos matrix (channel
// failpoints within the service's two reopens are fingerprint-invisible by
// design).
// One opt-in timing case checks that one resident service beats a fresh
// service per campaign.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <semaphore>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/soc.hpp"
#include "fixtures.hpp"
#include "service/artifacts.hpp"
#include "service/report_stream.hpp"
#include "service/service.hpp"

namespace corebist {
namespace {

using fixtures::makeMixedPlan;

std::unique_ptr<Soc> makeSoc() { return fixtures::makeToySoc("service_soc"); }

TestPlan makeSubsetPlan(std::vector<int> cores) {
  TestPlan plan = TestPlan{}.withPatterns(200);
  for (const int c : cores) plan.addCore(c);
  return plan;
}

/// One-worker reference fingerprint on a pristine SoC.
std::string referenceFingerprint(const TestPlan& plan) {
  auto soc = makeSoc();
  return fixtures::runCampaign(*soc, plan).fingerprint();
}

/// Every frame on `fd` up to EOF; closes `fd`.
std::vector<StreamEvent> drainFrames(int fd) {
  std::vector<StreamEvent> events;
  StreamEvent ev;
  while (readStreamEvent(fd, ev)) events.push_back(ev);
  close(fd);
  return events;
}

int threadsOfSelf() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return std::stoi(line.substr(8));
    }
  }
  return -1;
}

TEST(CampaignService, MultiTenantInterleavingIsFingerprintInvisible) {
  // Three distinct plans, each with a one-worker reference; submissions from
  // three tenants in a seeded-shuffled order, twice over, on a two-worker
  // reactor. Every report must match its plan's reference regardless of
  // how the reactor interleaved the campaigns.
  const std::vector<TestPlan> plans = {
      makeSubsetPlan({0, 1, 2}), makeSubsetPlan({3, 4, 5}), makeMixedPlan()};
  std::vector<std::string> references;
  references.reserve(plans.size());
  for (const TestPlan& p : plans) references.push_back(referenceFingerprint(p));

  auto soc = makeSoc();
  CampaignServiceConfig cfg;
  cfg.workers = 2;
  CampaignService service(*soc, cfg);

  std::vector<std::size_t> order;
  for (int round = 0; round < 2; ++round) {
    for (std::size_t p = 0; p < plans.size(); ++p) order.push_back(p);
  }
  std::mt19937 rng(0xC0B157);
  std::shuffle(order.begin(), order.end(), rng);

  std::vector<std::pair<CampaignHandle, std::size_t>> submitted;
  for (const std::size_t p : order) {
    SubmitOptions opts;
    opts.tenant = "tenant" + std::to_string(p);
    submitted.emplace_back(service.submit(plans[p], opts), p);
  }
  for (const auto& [handle, p] : submitted) {
    EXPECT_EQ(service.await(handle).fingerprint(), references[p])
        << "plan " << p;
  }
  // Repeated campaigns over one resident service share artifacts.
  EXPECT_GT(service.artifactStats().hits, 0u);
}

/// Observer that parks the worker inside the first onCoreStart until the
/// test releases it — makes "campaign X is definitely in flight" a
/// deterministic fact instead of a race.
class GateObserver final : public SessionObserver {
 public:
  std::binary_semaphore started{0};
  std::binary_semaphore release{0};
  void onCoreStart(int, int) override {
    if (!first_.exchange(false)) return;
    started.release();
    release.acquire();
  }

 private:
  std::atomic<bool> first_{true};
};

TEST(CampaignService, AdmissionRejectsOverQuotaWithTypedErrors) {
  auto soc = makeSoc();
  CampaignServiceConfig cfg;
  cfg.workers = 1;
  cfg.tenant_quotas["limited"] = TenantQuota{.max_in_flight = 1};
  cfg.tenant_quotas["starved"] =
      TenantQuota{.max_predicted_tcks = 10};  // below any real campaign
  CampaignService service(*soc, cfg);

  GateObserver gate;
  SubmitOptions first;
  first.tenant = "limited";
  first.observer = &gate;
  const CampaignHandle held = service.submit(makeSubsetPlan({0}), first);
  gate.started.acquire();  // the campaign is running, not merely queued

  SubmitOptions second;
  second.tenant = "limited";
  try {
    (void)service.submit(makeSubsetPlan({3}), second);
    FAIL() << "expected the in-flight quota to reject";
  } catch (const AdmissionError& e) {
    EXPECT_EQ(e.reason(), AdmissionError::Reason::kInFlightQuota);
    EXPECT_EQ(e.tenant(), "limited");
    EXPECT_NE(std::string(e.what()).find("in flight"), std::string::npos);
  }

  SubmitOptions starved;
  starved.tenant = "starved";
  try {
    (void)service.submit(makeSubsetPlan({3}), starved);
    FAIL() << "expected the predicted-TCK quota to reject";
  } catch (const AdmissionError& e) {
    EXPECT_EQ(e.reason(), AdmissionError::Reason::kPredictedTckQuota);
    EXPECT_EQ(e.tenant(), "starved");
  }

  // Unquoted tenants are never throttled, and a rejection charges nothing:
  // once the held campaign finishes, "limited" admits again.
  const CampaignHandle other = service.submit(makeSubsetPlan({5}));
  gate.release.release();
  EXPECT_TRUE(service.await(held).pass());
  (void)service.await(other);
  SubmitOptions again;
  again.tenant = "limited";
  EXPECT_TRUE(service.await(service.submit(makeSubsetPlan({3}), again)).pass());
}

TEST(CampaignService, CancelSkipsQueuedCampaigns) {
  auto soc = makeSoc();
  CampaignServiceConfig cfg;
  cfg.workers = 1;  // c2 is provably queued behind c1's units
  CampaignService service(*soc, cfg);

  GateObserver gate;
  SubmitOptions blocked;
  blocked.observer = &gate;
  const CampaignHandle c1 = service.submit(makeSubsetPlan({0}), blocked);
  gate.started.acquire();
  const CampaignHandle c2 = service.submit(makeSubsetPlan({3, 5}));

  EXPECT_EQ(service.status(c2).state, CampaignState::kQueued);
  EXPECT_TRUE(service.cancel(c2));

  gate.release.release();
  service.drain();
  const CampaignStatus s = service.status(c2);
  EXPECT_EQ(s.state, CampaignState::kCancelled);
  EXPECT_EQ(s.cores_done, 0);  // nothing ran
  EXPECT_FALSE(service.cancel(c2));  // already terminal
  EXPECT_STREQ(campaignStateName(s.state), "cancelled");
  EXPECT_TRUE(service.await(c1).pass());
  EXPECT_THROW((void)service.await(c2), CampaignCancelled);

  EXPECT_THROW((void)service.status(CampaignHandle{9999}), std::out_of_range);
}

class CountingObserver final : public SessionObserver {
 public:
  std::atomic<int> campaign_start{0};
  std::atomic<int> campaign_finish{0};
  std::atomic<int> channel_placed{0};
  std::atomic<int> core_finish{0};
  void onCampaignStart(int, int) override { ++campaign_start; }
  void onChannelPlaced(int, int, const std::vector<int>&,
                       std::size_t) override {
    ++channel_placed;
  }
  void onCoreFinish(const CoreReport&) override { ++core_finish; }
  void onCampaignFinish(const SessionReport&) override { ++campaign_finish; }
};

TEST(CampaignService, ObserverIsDetachedBeforeAwaitReturns) {
  auto soc = makeSoc();
  CampaignServiceConfig cfg;
  cfg.workers = 2;
  CampaignService service(*soc, cfg);

  auto observer = std::make_unique<CountingObserver>();
  SubmitOptions opts;
  opts.observer = observer.get();
  const CampaignHandle h = service.submit(makeMixedPlan(), opts);
  service.drain();
  EXPECT_EQ(service.status(h).state, CampaignState::kDone);
  const SessionReport report = service.await(h);

  // The full event stream arrived exactly once...
  EXPECT_EQ(observer->campaign_start.load(), 1);
  EXPECT_EQ(observer->campaign_finish.load(), 1);
  EXPECT_EQ(observer->core_finish.load(), 6);
  EXPECT_GT(observer->channel_placed.load(), 0);
  EXPECT_EQ(report.cores.size(), 6u);

  // ...and the registration is detached: destroying the observer now is
  // safe by contract (finalize cleared it before publishing the terminal
  // state await() observed). A dangling callback would fire into freed
  // memory here — ASan/TSan in CI would catch it.
  observer.reset();
  (void)service.await(service.submit(makeSubsetPlan({0})));
}

TEST(CampaignService, ArtifactReuseIsFingerprintInvisible) {
  // A campaign exercises every cached product: the lint gate at layout and
  // each module's golden signature.
  const TestPlan plan = TestPlan{}.withPatterns(128);

  const std::string reference = referenceFingerprint(plan);

  auto soc = makeSoc();
  CampaignServiceConfig cfg;
  cfg.workers = 2;
  CampaignService service(*soc, cfg);

  const SessionReport cold = service.await(service.submit(plan));
  const ArtifactStats after_cold = service.artifactStats();
  const SessionReport warm = service.await(service.submit(plan));
  const ArtifactStats after_warm = service.artifactStats();

  EXPECT_EQ(cold.fingerprint(), reference);
  EXPECT_EQ(warm.fingerprint(), reference);
  // The cold run computed (misses); the warm run reused (hits grew, misses
  // did not).
  EXPECT_GT(after_cold.misses, 0u);
  EXPECT_GT(after_warm.hits, after_cold.hits);
  EXPECT_EQ(after_warm.misses, after_cold.misses);
  EXPECT_GT(after_warm.hitRate(), 0.0);

  // The memoized golden equals the direct good-machine simulation.
  EXPECT_EQ(service.artifacts().goldenSignature(soc->core(0), 0, 128),
            soc->core(0).goldenSignature(0, 128));
}

TEST(CampaignService, PredictRacesRunSafely) {
  // predict() resolves and places against live SoC topology while workers
  // drive cores through replica channels. The forecast must be stable and
  // the interleaving TSan-clean (this test runs under the CI TSan job).
  auto soc = makeSoc();
  CampaignServiceConfig cfg;
  cfg.workers = 2;
  CampaignService service(*soc, cfg);

  const PlanForecast baseline = service.predict(makeMixedPlan());
  ASSERT_GT(baseline.predicted_total_tcks, 0u);

  std::vector<CampaignHandle> handles;
  for (int i = 0; i < 3; ++i) handles.push_back(service.submit(makeMixedPlan()));
  std::atomic<bool> mismatch{false};
  std::thread predictor([&] {
    for (int i = 0; i < 20; ++i) {
      const PlanForecast f = service.predict(makeMixedPlan());
      if (f.predicted_total_tcks != baseline.predicted_total_tcks ||
          f.predicted_makespan_tcks != baseline.predicted_makespan_tcks) {
        mismatch.store(true);
      }
    }
  });
  for (const CampaignHandle h : handles) (void)service.await(h);
  predictor.join();
  EXPECT_FALSE(mismatch.load());
}

TEST(CampaignService, StreamedFramesReconstructTheReport) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);

  auto soc = makeSoc();
  CampaignServiceConfig cfg;
  cfg.workers = 2;
  CampaignService service(*soc, cfg);

  SubmitOptions opts;
  opts.stream_fd = fds[1];
  const CampaignHandle h = service.submit(makeMixedPlan(), opts);
  const SessionReport report = service.await(h);
  close(fds[1]);  // campaign terminal => no more frames

  const std::vector<StreamEvent> events = drainFrames(fds[0]);

  ASSERT_FALSE(events.empty());
  for (const StreamEvent& e : events) EXPECT_EQ(e.campaign_id, h.id);
  EXPECT_EQ(events.front().kind, StreamEventKind::kCampaignStart);
  EXPECT_EQ(events.back().kind, StreamEventKind::kCampaignFinish);

  int core_finish = 0;
  int placed = 0;
  for (const StreamEvent& e : events) {
    if (e.kind == StreamEventKind::kCoreFinish) ++core_finish;
    if (e.kind == StreamEventKind::kChannelPlaced) ++placed;
  }
  EXPECT_EQ(core_finish, 6);
  EXPECT_GT(placed, 0);

  // The incremental core frames carry the exact per-core JSON of the final
  // report, and the finish frame is the whole report verbatim.
  std::vector<std::string> expected_cores;
  for (const CoreReport& c : report.cores) {
    expected_cores.push_back(coreReportJson(c, true));
  }
  for (const StreamEvent& e : events) {
    if (e.kind != StreamEventKind::kCoreFinish) continue;
    EXPECT_NE(std::find(expected_cores.begin(), expected_cores.end(), e.json),
              expected_cores.end())
        << e.json;
  }
  EXPECT_EQ(events.back().json, report.toJson());
  EXPECT_STREQ(streamEventKindName(events.back().kind), "campaign_finish");
}

/// Records the kind of every event it receives, in arrival order.
class KindRecorder final : public SessionObserver {
 public:
  std::vector<StreamEventKind> kinds;
  void onCampaignStart(int, int) override {
    kinds.push_back(StreamEventKind::kCampaignStart);
  }
  void onChannelPlaced(int, int, const std::vector<int>&,
                       std::size_t) override {
    kinds.push_back(StreamEventKind::kChannelPlaced);
  }
  void onCoreStart(int, int) override {
    kinds.push_back(StreamEventKind::kCoreStart);
  }
  void onCoreTimeout(int, int, bool) override {
    kinds.push_back(StreamEventKind::kCoreTimeout);
  }
  void onChannelFailure(int, int, bool) override {
    kinds.push_back(StreamEventKind::kChannelFailure);
  }
  void onCoreQuarantined(int, int) override {
    kinds.push_back(StreamEventKind::kCoreQuarantined);
  }
  void onCoreFinish(const CoreReport&) override {
    kinds.push_back(StreamEventKind::kCoreFinish);
  }
  void onCampaignFinish(const SessionReport&) override {
    kinds.push_back(StreamEventKind::kCampaignFinish);
  }
  void onCampaignEnd(std::string_view, const std::string&) override {
    kinds.push_back(StreamEventKind::kCampaignEnd);
  }
};

TEST(CampaignService, ObserverAndStreamSeeTheSameEvents) {
  // One campaign with both a tenant observer and a stream: the observer
  // list hands each event to both under one lock, so the observer's event
  // kinds equal the stream's frame kinds, in the same order.
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  auto soc = makeSoc();
  CampaignService service(*soc, CampaignServiceConfig{.workers = 2});

  KindRecorder recorder;
  SubmitOptions opts;
  opts.observer = &recorder;
  opts.stream_fd = fds[1];
  (void)service.await(service.submit(makeMixedPlan(), opts));
  close(fds[1]);

  std::vector<StreamEventKind> framed;
  for (const StreamEvent& e : drainFrames(fds[0])) framed.push_back(e.kind);

  EXPECT_EQ(recorder.kinds, framed);
  ASSERT_FALSE(framed.empty());
  EXPECT_EQ(framed.front(), StreamEventKind::kCampaignStart);
  EXPECT_EQ(framed.back(), StreamEventKind::kCampaignFinish);
  // The mixed plan's forced timeouts make the order worth comparing.
  EXPECT_NE(std::find(framed.begin(), framed.end(),
                      StreamEventKind::kCoreTimeout),
            framed.end());
}

TEST(CampaignService, EmptyCampaignCompletesImmediately) {
  Soc soc("empty_soc");
  CampaignService service(soc);
  const CampaignHandle h = service.submit(TestPlan{});
  EXPECT_EQ(service.status(h).state, CampaignState::kDone);
  const SessionReport report = service.await(h);
  EXPECT_TRUE(report.cores.empty());
}

TEST(CampaignService, ServiceSoakLeaksNothing) {
  // N tenants x M campaigns over a small reactor; every fingerprint equals
  // its reference and the pool's threads are all joined at scope exit.
  // The CI soak job runs this with COREBIST_FAILPOINTS channel chaos armed
  // (within the service's two reopens) — recovery is fingerprint-invisible.
  const std::vector<TestPlan> plans = {
      makeSubsetPlan({0, 1}), makeSubsetPlan({2, 3}), makeMixedPlan()};
  std::vector<std::string> references;
  references.reserve(plans.size());
  for (const TestPlan& p : plans) references.push_back(referenceFingerprint(p));

  // join() can return while the kernel still counts the exited thread in
  // /proc/self/status, so both counts below wait for the count to settle
  // (a leaked thread never leaves, so the check still catches leaks).
  for (int i = 0; i < 500 && threadsOfSelf() != 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const int threads_before = threadsOfSelf();
  auto soc = makeSoc();
  {
    CampaignServiceConfig cfg;
    cfg.workers = 2;
    CampaignService service(*soc, cfg);
    std::vector<std::pair<CampaignHandle, std::size_t>> submitted;
    for (int round = 0; round < 4; ++round) {
      for (std::size_t p = 0; p < plans.size(); ++p) {
        SubmitOptions opts;
        opts.tenant = "tenant" + std::to_string(p);
        submitted.emplace_back(service.submit(plans[p], opts), p);
      }
    }
    service.drain();
    for (const auto& [handle, p] : submitted) {
      EXPECT_EQ(service.status(handle).state, CampaignState::kDone);
      EXPECT_EQ(service.await(handle).fingerprint(), references[p])
          << "plan " << p;
    }
    EXPECT_GT(service.artifactStats().hitRate(), 0.0);
  }
  for (int i = 0; i < 500 && threadsOfSelf() != threads_before; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // The reactor joined its pool on destruction: no leaked threads.
  EXPECT_EQ(threadsOfSelf(), threads_before);
}

TEST(CampaignService, DestructorCancelsUnfinishedCampaigns) {
  auto soc = makeSoc();
  GateObserver gate;
  auto service = std::make_unique<CampaignService>(
      *soc, CampaignServiceConfig{.workers = 1});
  SubmitOptions blocked;
  blocked.observer = &gate;
  (void)service->submit(makeSubsetPlan({0}), blocked);
  gate.started.acquire();
  const CampaignHandle queued = service->submit(makeSubsetPlan({3}));
  EXPECT_EQ(service->status(queued).state, CampaignState::kQueued);
  gate.release.release();
  service.reset();  // dtor: cancel queued, drain, join — must not hang
}

/// Fails its campaign: the first core start throws.
class FailingObserver final : public SessionObserver {
 public:
  void onCoreStart(int, int) override {
    throw std::runtime_error("observer gave up");
  }
};

TEST(CampaignService, AwaitReleasesTheRecordOfEveryOutcome) {
  // 999 campaigns queue behind a gated one on a single worker: every third
  // is cancelled while queued, every third fails (its observer throws).
  // status() sees each terminal state before await(); once await() has
  // returned or thrown, the service knows no campaign of the 1,000.
  auto soc = makeSoc();
  CampaignService service(*soc, CampaignServiceConfig{.workers = 1});
  const TestPlan plan = makeSubsetPlan({0}).withPatterns(64);

  GateObserver gate;
  SubmitOptions gated;
  gated.observer = &gate;
  std::vector<CampaignHandle> handles{service.submit(plan, gated)};
  gate.started.acquire();
  FailingObserver failing;
  std::vector<CampaignState> expected{CampaignState::kDone};
  for (int i = 1; i < 1000; ++i) {
    SubmitOptions opts;
    CampaignState want = CampaignState::kDone;
    if (i % 3 == 2) {
      opts.observer = &failing;
      want = CampaignState::kFailed;
    }
    handles.push_back(service.submit(plan, opts));
    if (i % 3 == 1) {
      EXPECT_TRUE(service.cancel(handles.back()));
      want = CampaignState::kCancelled;
    }
    expected.push_back(want);
  }
  gate.release.release();
  service.drain();

  for (std::size_t i = 0; i < handles.size(); ++i) {
    ASSERT_EQ(service.status(handles[i]).state, expected[i])
        << "campaign " << i;
    switch (expected[i]) {
      case CampaignState::kDone:
        EXPECT_TRUE(service.await(handles[i]).pass());
        break;
      case CampaignState::kCancelled:
        EXPECT_THROW((void)service.await(handles[i]), CampaignCancelled);
        break;
      default:
        try {
          (void)service.await(handles[i]);
          ADD_FAILURE() << "campaign " << i << " did not fail";
        } catch (const std::runtime_error& e) {
          EXPECT_STREQ(e.what(), "observer gave up");
        }
    }
  }
  for (const CampaignHandle h : handles) {
    EXPECT_THROW((void)service.status(h), std::out_of_range);
    EXPECT_THROW((void)service.cancel(h), std::out_of_range);
    EXPECT_THROW((void)service.await(h), std::out_of_range);
  }
}

/// Throws from the start event, or from every placement event.
class RefusingObserver final : public SessionObserver {
 public:
  explicit RefusingObserver(bool at_placement) : at_placement_(at_placement) {}
  void onCampaignStart(int, int) override {
    if (!at_placement_) throw std::runtime_error("start refused");
  }
  void onChannelPlaced(int, int, const std::vector<int>&,
                       std::size_t) override {
    if (at_placement_) throw std::runtime_error("placement refused");
  }

 private:
  bool at_placement_;
};

/// Polls status() until `h` is terminal; false once `limit` has passed, so
/// a campaign that never finishes fails the test instead of hanging it.
bool terminalWithin(const CampaignService& service, CampaignHandle h,
                    std::chrono::seconds limit) {
  const auto until = std::chrono::steady_clock::now() + limit;
  for (;;) {
    const CampaignState s = service.status(h).state;
    if (s != CampaignState::kQueued && s != CampaignState::kRunning) {
      return true;
    }
    if (std::chrono::steady_clock::now() >= until) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

TEST(CampaignService, ThrowingStartOrPlacementObserverFailsItsCampaign) {
  // submit() has registered the campaign and charged its tenant by the time
  // the start and placement events run. An observer that throws there must
  // still leave a terminal campaign and a released quota; otherwise the
  // tenant's next submit is refused and drain() never returns.
  const TestPlan plan = makeSubsetPlan({0, 3});
  const std::string reference = referenceFingerprint(plan);
  for (const bool at_placement : {false, true}) {
    SCOPED_TRACE(at_placement ? "onChannelPlaced" : "onCampaignStart");
    auto soc = makeSoc();
    CampaignServiceConfig cfg;
    cfg.workers = 1;
    cfg.default_quota = TenantQuota{.max_in_flight = 1};
    CampaignService service(*soc, cfg);

    RefusingObserver refusing(at_placement);
    SubmitOptions opts;
    opts.tenant = "t";
    opts.observer = &refusing;
    CampaignHandle failed;
    ASSERT_NO_THROW(failed = service.submit(plan, opts));
    ASSERT_TRUE(terminalWithin(service, failed, std::chrono::seconds(10)));
    EXPECT_EQ(service.status(failed).state, CampaignState::kFailed);
    try {
      (void)service.await(failed);
      ADD_FAILURE() << "await() did not rethrow the observer's exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(),
                   at_placement ? "placement refused" : "start refused");
    }

    SubmitOptions next;
    next.tenant = "t";
    CampaignHandle ok;
    ASSERT_NO_THROW(ok = service.submit(plan, next));
    ASSERT_TRUE(terminalWithin(service, ok, std::chrono::seconds(10)));
    service.drain();
    EXPECT_EQ(service.await(ok).fingerprint(), reference);
  }
}

/// Frames of a terminal kind (campaign_finish or campaign_end).
long terminalFrames(const std::vector<StreamEvent>& events) {
  return std::count_if(events.begin(), events.end(), [](const StreamEvent& e) {
    return e.kind == StreamEventKind::kCampaignFinish ||
           e.kind == StreamEventKind::kCampaignEnd;
  });
}

TEST(CampaignService, FailedCampaignStreamEndsWithCampaignEnd) {
  // The tenant's observer comes first in the campaign's list and throws at
  // the first core start. The stream after it must still get that event,
  // and then one terminal frame saying the campaign failed, and why.
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  auto soc = makeSoc();
  CampaignService service(*soc, CampaignServiceConfig{.workers = 1});
  FailingObserver failing;
  SubmitOptions opts;
  opts.observer = &failing;
  opts.stream_fd = fds[1];
  EXPECT_THROW((void)service.await(service.submit(makeMixedPlan(), opts)),
               std::runtime_error);
  close(fds[1]);

  const std::vector<StreamEvent> events = drainFrames(fds[0]);
  ASSERT_GE(events.size(), 3u);
  EXPECT_EQ(events.front().kind, StreamEventKind::kCampaignStart);
  EXPECT_EQ(events[events.size() - 2].kind, StreamEventKind::kCoreStart);
  EXPECT_EQ(events.back().kind, StreamEventKind::kCampaignEnd);
  EXPECT_STREQ(streamEventKindName(events.back().kind), "campaign_end");
  EXPECT_EQ(events.back().json,
            "{\"state\": \"failed\", \"error\": \"observer gave up\"}");
  EXPECT_EQ(terminalFrames(events), 1);
}

TEST(CampaignService, CancelledCampaignStreamEndsWithCampaignEnd) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  auto soc = makeSoc();
  CampaignService service(*soc, CampaignServiceConfig{.workers = 1});
  GateObserver gate;
  SubmitOptions gated;
  gated.observer = &gate;
  const CampaignHandle held = service.submit(makeSubsetPlan({0}), gated);
  gate.started.acquire();
  SubmitOptions streamed;
  streamed.stream_fd = fds[1];
  const CampaignHandle queued =
      service.submit(makeSubsetPlan({3, 5}), streamed);
  EXPECT_TRUE(service.cancel(queued));
  gate.release.release();
  EXPECT_TRUE(service.await(held).pass());
  EXPECT_THROW((void)service.await(queued), CampaignCancelled);
  close(fds[1]);

  const std::vector<StreamEvent> events = drainFrames(fds[0]);
  ASSERT_GE(events.size(), 2u);
  EXPECT_EQ(events.front().kind, StreamEventKind::kCampaignStart);
  EXPECT_EQ(events.back().kind, StreamEventKind::kCampaignEnd);
  EXPECT_EQ(events.back().json,
            "{\"state\": \"cancelled\", \"error\": \"\"}");
  EXPECT_EQ(terminalFrames(events), 1);
  for (const StreamEvent& e : events) {
    EXPECT_NE(e.kind, StreamEventKind::kCoreStart);  // nothing ran
  }
}

/// Throws from the terminal event of a campaign that completed.
class FinishRefusingObserver final : public SessionObserver {
 public:
  void onCampaignFinish(const SessionReport&) override {
    throw std::runtime_error("finish refused");
  }
};

TEST(CampaignService, ThrowingFinishObserverFailsItsCampaign) {
  // An observer that throws from onCampaignFinish fails its campaign like
  // one that throws from any other event: await() rethrows, the stream
  // after it ends with campaign_end "failed" instead, the failed campaign
  // credits the chip TAP nothing, and the reactor keeps serving.
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  auto soc = makeSoc();
  CampaignService service(*soc, CampaignServiceConfig{.workers = 1});
  FinishRefusingObserver refusing;
  SubmitOptions opts;
  opts.observer = &refusing;
  opts.stream_fd = fds[1];
  const std::size_t tcks = soc->tap().tckCount();
  try {
    (void)service.await(service.submit(makeSubsetPlan({0, 3}), opts));
    ADD_FAILURE() << "await() did not rethrow the observer's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "finish refused");
  }
  close(fds[1]);
  EXPECT_EQ(soc->tap().tckCount(), tcks);

  const std::vector<StreamEvent> events = drainFrames(fds[0]);
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.back().kind, StreamEventKind::kCampaignEnd);
  EXPECT_EQ(events.back().json,
            "{\"state\": \"failed\", \"error\": \"finish refused\"}");
  EXPECT_EQ(terminalFrames(events), 1);
  EXPECT_TRUE(service.await(service.submit(makeSubsetPlan({0}))).pass());
}

TEST(WireReportStream, StreamsSharingOneDescriptorNeverShear) {
  // Two campaigns' streams on one pipe, each written from its own thread.
  // A frame past PIPE_BUF (4 KiB) may be split by the kernel, and one past
  // the pipe's capacity always is (shrunk to one page here, so that the
  // frames can stay small), so the writes of the two streams interleave
  // unless one lock keeps them apart. A concurrent reader must decode
  // every frame whole and count exactly each campaign's frames.
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  const int capacity = fcntl(fds[1], F_SETPIPE_SZ, 4096);
  ASSERT_GE(capacity, 4096);
  SessionReport big;
  big.soc_name = std::string(3 * static_cast<std::size_t>(capacity), 's');
  const std::string json = big.toJson();
  constexpr int kFrames = 500;  // per stream

  std::map<std::uint64_t, int> counted;
  std::string error;
  std::thread reader([&] {
    StreamEvent ev;
    try {
      while (readStreamEvent(fds[0], ev)) {
        ++counted[ev.campaign_id];
        if (ev.kind != StreamEventKind::kCampaignFinish || ev.json != json) {
          error = "frame of campaign " + std::to_string(ev.campaign_id) +
                  " decoded to the wrong event";
          break;
        }
      }
    } catch (const std::exception& e) {
      error = e.what();
    }
    close(fds[0]);  // a writer still running sees EPIPE and drops out
  });
  {
    std::vector<std::jthread> writers;
    for (const std::uint64_t id : {1u, 2u}) {
      writers.emplace_back([&big, fd = fds[1], id] {
        WireReportStream stream(fd, id);
        for (int i = 0; i < kFrames; ++i) stream.onCampaignFinish(big);
      });
    }
  }
  close(fds[1]);
  reader.join();

  EXPECT_EQ(error, "");
  EXPECT_GT(json.size(), 4096u);
  EXPECT_EQ(counted[1], kFrames);
  EXPECT_EQ(counted[2], kFrames);
}

TEST(StreamObserver, ConcurrentLinesNeverShear) {
  // Four threads hammer one labeled StreamObserver; every emitted line must
  // come out whole — single-write emission under the member mutex — and
  // carry the campaign label prefix.
  std::FILE* tmp = std::tmpfile();
  ASSERT_NE(tmp, nullptr);
  StreamObserver observer(tmp, "svc1");

  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&observer, t] {
      for (int i = 0; i < kPerThread; ++i) {
        observer.onChannelPlaced(t, i, {1, 2, 3}, 1234);
        CoreReport r;
        r.core_index = t * 1000 + i;
        r.core_name = "core";
        observer.onCoreFinish(r);
      }
    });
  }
  for (std::thread& th : pool) th.join();

  std::rewind(tmp);
  std::ostringstream content;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, tmp)) > 0) {
    content.write(buf, static_cast<std::streamsize>(n));
  }
  std::fclose(tmp);

  std::istringstream lines(content.str());
  std::string line;
  int count = 0;
  while (std::getline(lines, line)) {
    ++count;
    ASSERT_EQ(line.rfind("[svc1] [", 0), 0u) << "sheared line: " << line;
    // A sheared write would splice one line into another: every line has
    // exactly one label prefix.
    EXPECT_EQ(line.find("[svc1] ", 1), std::string::npos) << line;
  }
  EXPECT_EQ(count, kThreads * kPerThread * 2);
}

// A timing assertion, so ctest skips it. CI runs it with
// --gtest_also_run_disabled_tests --gtest_filter='CampaignServiceTiming.*'.
TEST(CampaignServiceTiming, DISABLED_ResidentBeatsFreshServices) {
  // Four campaigns on six two-module cores: a fresh two-worker service per
  // campaign rebuilds lint, fault universes and golden signatures every
  // time, while one resident two-worker service builds them once. Each side
  // is the median of three batches.
  constexpr int kCampaigns = 4;
  const auto median_of_3 = [](const auto& batch) {
    std::vector<double> seconds;
    for (int r = 0; r < 3; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      batch();
      seconds.push_back(std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count());
    }
    std::sort(seconds.begin(), seconds.end());
    return seconds[1];
  };
  auto soc = fixtures::makeTwoModuleSoc(6);
  const TestPlan plan = TestPlan{}.withPatterns(256);
  const std::string reference =
      fixtures::runCampaign(*soc, plan, 2).fingerprint();

  const double fresh = median_of_3([&] {
    for (int i = 0; i < kCampaigns; ++i) {
      EXPECT_EQ(fixtures::runCampaign(*soc, plan, 2).fingerprint(), reference);
    }
  });
  CampaignServiceConfig cfg;
  cfg.workers = 2;
  CampaignService service(*soc, cfg);
  const double resident = median_of_3([&] {
    std::vector<CampaignHandle> handles;
    for (int i = 0; i < kCampaigns; ++i) handles.push_back(service.submit(plan));
    for (const CampaignHandle h : handles) {
      EXPECT_EQ(service.await(h).fingerprint(), reference);
    }
  });
  EXPECT_LT(resident, fresh) << kCampaigns << " campaigns";
}

}  // namespace
}  // namespace corebist
