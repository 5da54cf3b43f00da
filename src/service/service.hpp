// CampaignService: a resident, multi-tenant SoC test-campaign engine — the
// one way to run a SoC campaign (`await(submit(plan))`) or to forecast one
// (`predict(plan)`).
//
// It is constructed once, stays resident, and multiplexes any number of
// concurrent campaigns over shared state:
//
//   * artifact layer (service/artifacts.hpp) — lint reports and golden
//     signatures are immutable, content-keyed artifacts built once and
//     shared by reference across every campaign the service ever runs; the
//     service owns its store;
//   * reactor layer — a fixed pool of worker threads claims ChannelUnits
//     (service/layout.hpp) from any admitted campaign. Campaigns on
//     different core trees interleave freely; units touching the same tree
//     serialize on a per-root mutex, because cores sharing a top-level
//     ancestor share one wrapper chain and one clock domain. A channel
//     that fails (SessionChannelError) is reopened twice, with a 1-ms
//     exponential backoff base, before its core is quarantined;
//   * service API — submit(plan) admits a campaign and returns a
//     CampaignHandle; await/cancel/status manage it. Admission control is
//     driven by the same P1500Ate cost model predict() uses: each tenant is
//     charged the campaign's predicted TCKs against its quota, and
//     over-quota submissions fail fast with a typed AdmissionError —
//     admission never blocks the reactor;
//   * streaming results — each campaign's ObserverList holds the tenant's
//     observer and an optional WireReportStream
//     (service/report_stream.hpp), which deliver progress and incremental
//     CoreReport JSON while the campaign runs.
//
// SoC topology: cores may be attached to the SoC while the service exists,
// between campaigns — a campaign lays out against the topology at
// submit() — but never while a campaign is admitted and unfinished.
//
// Determinism: a campaign's SessionReport fingerprint is a pure function of
// (SoC core-tree state, plan). Every attempt starts from TAP reset + BIST
// kReset on a replica channel, tree access is serialized, and artifacts are
// bitwise equal to what a cold rebuild would produce — so fingerprints are
// byte-identical across any pool size and any multi-tenant interleaving
// (pinned by tests/soc_scheduler_test.cpp and tests/service_test.cpp).
//
// Observer lifecycle (the checked-registration contract): callbacks for a
// campaign fire only inside submit() (the start and placement events) and
// between submit() returning and its terminal state being published. The
// last callback is the terminal event — onCampaignFinish for kDone,
// onCampaignEnd for kFailed and kCancelled — and finalize clears the
// campaign's ObserverList right after it, BEFORE the terminal state
// becomes visible, so once await()/drain() returns, no further callback
// can touch the caller's observer — it may be destroyed immediately.
//
// Records: the service keeps a campaign's record until await() collects
// it, whatever the outcome; afterwards status(), cancel() and await() on
// that handle throw std::out_of_range. Campaigns never awaited are kept
// until the service is destroyed.
#ifndef COREBIST_SERVICE_SERVICE_HPP_
#define COREBIST_SERVICE_SERVICE_HPP_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/session_observer.hpp"
#include "core/session_report.hpp"
#include "core/soc.hpp"
#include "core/test_plan.hpp"
#include "service/artifacts.hpp"
#include "service/layout.hpp"

namespace corebist {

/// Lifecycle of one admitted campaign. Terminal states: kDone, kFailed,
/// kCancelled.
enum class CampaignState : std::uint8_t {
  kQueued,     // admitted, units not yet claimed
  kRunning,    // at least one unit claimed by a worker
  kDone,       // every unit completed; report available via await()
  kFailed,     // a unit threw; await() rethrows the stored exception
  kCancelled,  // cancel() (or service shutdown) preempted completion
};

[[nodiscard]] const char* campaignStateName(CampaignState s) noexcept;

/// Typed admission rejection. Thrown by submit() only — by the time a
/// campaign is admitted it can no longer fail admission, so the reactor
/// never sees (or blocks on) quota pressure.
class AdmissionError : public std::runtime_error {
 public:
  enum class Reason : std::uint8_t {
    kShuttingDown,      // service is stopping; nothing new is admitted
    kInFlightQuota,     // tenant already runs its max concurrent campaigns
    kPredictedTckQuota, // predicted TCKs would exceed the tenant's budget
  };

  AdmissionError(Reason reason, std::string tenant, const std::string& what)
      : std::runtime_error("CampaignService: " + what),
        reason_(reason),
        tenant_(std::move(tenant)) {}

  [[nodiscard]] Reason reason() const noexcept { return reason_; }
  [[nodiscard]] const std::string& tenant() const noexcept { return tenant_; }

 private:
  Reason reason_;
  std::string tenant_;
};

/// Thrown by await() when the campaign was cancelled before completion.
class CampaignCancelled : public std::runtime_error {
 public:
  explicit CampaignCancelled(std::uint64_t id)
      : std::runtime_error("CampaignService: campaign " + std::to_string(id) +
                           " was cancelled") {}
};

/// Per-tenant admission limits. 0 = unlimited.
struct TenantQuota {
  int max_in_flight = 0;  // concurrent campaigns (queued + running)
  std::size_t max_predicted_tcks = 0;  // summed predicted TCKs in flight
};

struct CampaignServiceConfig {
  /// Fixed reactor pool size (clamped to >= 1), the one concurrency knob of
  /// a campaign. It shapes placement — each TAM opens at most this many
  /// channels (see service/layout.hpp) — but never outcomes: fingerprints
  /// are pool-size-invariant.
  int workers = 2;
  /// Quota applied to tenants without an explicit entry.
  TenantQuota default_quota{};
  /// Per-tenant overrides.
  std::map<std::string, TenantQuota> tenant_quotas{};
};

struct SubmitOptions {
  std::string tenant = "default";
  /// Per-campaign observer; callbacks are serialized and detached before
  /// the terminal state is published (see the lifecycle note above). Must
  /// stay valid until await()/drain() returns for this campaign.
  SessionObserver* observer = nullptr;
  /// When >= 0, every campaign event is also framed onto this descriptor
  /// as a checksummed wire message (service/report_stream.hpp). Not owned;
  /// the caller closes it after the campaign is awaited.
  int stream_fd = -1;
};

/// Value handle naming one admitted campaign.
struct CampaignHandle {
  std::uint64_t id = 0;
};

/// Point-in-time progress snapshot of one campaign.
struct CampaignStatus {
  std::uint64_t id = 0;
  std::string tenant;
  CampaignState state = CampaignState::kQueued;
  int cores_total = 0;
  int cores_done = 0;
  std::size_t units_total = 0;
  std::size_t units_done = 0;
  std::size_t predicted_total_tcks = 0;
};

class CampaignService {
 public:
  explicit CampaignService(Soc& soc, CampaignServiceConfig config = {});

  /// Cancels every live campaign, drains the reactor and joins the pool.
  /// Unawaited reports are discarded.
  ~CampaignService();

  CampaignService(const CampaignService&) = delete;
  CampaignService& operator=(const CampaignService&) = delete;

  /// Admit a campaign. Resolution/validation errors throw
  /// std::invalid_argument (unknown or duplicated cores, a core assigned
  /// to a TAM that does not serve it, pattern budgets beyond a core's
  /// counter capacity, a poll budget below 1, a negative poll idle or
  /// negative retries, a module failing structural lint); quota violations
  /// throw AdmissionError. On return the campaign is
  /// registered, its tenant charged, its start/placement events delivered,
  /// and its units queued to the reactor. An observer that throws from a
  /// start or placement event does not make submit() throw: the campaign
  /// fails (kFailed, its quota released) and await() rethrows.
  CampaignHandle submit(const TestPlan& plan, const SubmitOptions& opts = {});

  /// Block until `h` reaches a terminal state. kDone returns the report;
  /// kFailed rethrows the exception that failed the campaign; kCancelled
  /// throws CampaignCancelled. By the time this returns, the campaign's
  /// observer is detached and safe to destroy, and its record is released
  /// (returned or thrown): `h` is unknown to the service from then on.
  SessionReport await(CampaignHandle h);

  /// Request cancellation: already-started cores finish (a core test is
  /// never torn down mid-protocol), everything else is skipped. Returns
  /// false when the campaign is already terminal.
  bool cancel(CampaignHandle h);

  /// Like await() and cancel(), throws std::out_of_range for a handle the
  /// service does not know: never issued, or already awaited.
  [[nodiscard]] CampaignStatus status(CampaignHandle h) const;

  /// What-if forecast under this service's worker budget: same resolution,
  /// lint gating and placement pass as submit(), same rejections
  /// (std::invalid_argument only — predict() charges no quota), zero TCKs
  /// spent. Forecast TCKs are exact for cores whose dwell covers the whole
  /// run (the default warmup) and lower bounds otherwise. Safe to call
  /// concurrently with running campaigns.
  [[nodiscard]] PlanForecast predict(const TestPlan& plan);

  /// Block until every admitted campaign is terminal.
  void drain();

  /// The service's artifact store, shared by every campaign it runs.
  [[nodiscard]] ArtifactStore& artifacts() noexcept { return artifacts_; }
  [[nodiscard]] ArtifactStats artifactStats() const {
    return artifacts_.stats();
  }

 private:
  struct Campaign;

  [[nodiscard]] TenantQuota quotaFor(const std::string& tenant) const;
  [[nodiscard]] std::shared_ptr<Campaign> findLocked(std::uint64_t id) const;
  void workerLoop();
  void runUnit(Campaign& c, std::size_t u);
  /// Aggregate, release quota, deliver the terminal event, clear the
  /// observer list, credit the TAP, publish the terminal state. Called with
  /// `lock` held; drops and reacquires it around the observer callbacks.
  void finalize(std::unique_lock<std::mutex>& lock, Campaign& c);

  struct TenantUsage {
    int in_flight = 0;
    std::size_t predicted_tcks = 0;
  };

  Soc& soc_;
  int workers_;
  TenantQuota default_quota_;
  std::map<std::string, TenantQuota> tenant_quotas_;
  ArtifactStore artifacts_;

  mutable std::mutex mu_;  // guards everything below
  /// One mutex per tree root (a top-level core index), created on the
  /// first submit() that lays out a group under it — so a core attached
  /// after the service was built gets its own. A unit locks its group's
  /// root for the whole group, so two campaigns never drive one wrapper
  /// chain concurrently. The map is node-stable: a campaign keeps
  /// pointers to its roots' mutexes. Workers hold at most one tree lock at
  /// a time, and lock order is always tree -> artifact store -> observer
  /// list -> stream frame lock, so no cycle exists.
  std::map<int, std::mutex> tree_mu_;
  std::condition_variable work_cv_;  // reactor: queue became non-empty / stop
  std::condition_variable done_cv_;  // await/drain: a campaign went terminal
  bool stopping_ = false;
  std::uint64_t next_id_ = 1;
  std::unordered_map<std::uint64_t, std::shared_ptr<Campaign>> campaigns_;
  std::deque<std::pair<std::shared_ptr<Campaign>, std::size_t>> queue_;
  std::map<std::string, TenantUsage> tenants_;
  std::vector<std::thread> pool_;
};

}  // namespace corebist

#endif  // COREBIST_SERVICE_SERVICE_HPP_
