#include "service/service.hpp"

#include <atomic>
#include <chrono>
#include <exception>
#include <optional>

#include "core/session_channel.hpp"
#include "fault/failpoint.hpp"
#include "service/report_stream.hpp"

namespace corebist {

const char* campaignStateName(CampaignState s) noexcept {
  switch (s) {
    case CampaignState::kQueued:
      return "queued";
    case CampaignState::kRunning:
      return "running";
    case CampaignState::kDone:
      return "done";
    case CampaignState::kFailed:
      return "failed";
    case CampaignState::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

/// One admitted campaign: its resolved layout, the report being filled,
/// and its observers — the tenant's and, when asked for, the wire stream,
/// in that order. Every callback runs under the list's one mutex, which is
/// also the lock clear() takes: once finalize cleared the list, no
/// callback can reach the tenant's object.
struct CampaignService::Campaign {
  std::uint64_t id = 0;
  std::string tenant;
  CampaignState state = CampaignState::kQueued;  // guarded by service mu_
  std::atomic<bool> cancel_requested{false};
  CampaignLayout layout;
  SessionReport report;  // cores[] written by workers on disjoint indices
  std::size_t units_done = 0;  // guarded by service mu_
  std::atomic<int> cores_done{0};
  std::exception_ptr error;  // first failure; guarded by service mu_
  std::chrono::steady_clock::time_point t0{};
  /// Per layout group, the lock of its tree root (CampaignService::tree_mu_).
  std::vector<std::mutex*> tree_mu;

  std::optional<WireReportStream> stream;
  ObserverList observers;
};

namespace {

/// Channel reopens a core gets before it is quarantined, and the base of
/// the exponential backoff before each (backoffMs: reopen k sleeps
/// base << (k-1) ms).
constexpr int kChannelReopens = 2;
constexpr int kReopenBackoffBaseMs = 1;

/// Run one core with channel-level self-healing. A SessionChannelError
/// means the test-access plumbing (not the core) failed, so the suspect
/// channel is dropped, a fresh replica is opened, and the core is re-run
/// from the top — CoreReport attempts/polls reset with the channel, which
/// is what keeps a recovered core's fingerprint identical to a never-failed
/// run. After kChannelReopens reopens the core is quarantined (verdict
/// kQuarantined, identity fields only, zero TCK/at-speed accounting so
/// campaign totals stay deterministic). All other exception types
/// propagate untouched.
CoreReport testCoreResilient(Soc& soc, ArtifactStore& artifacts,
                             std::unique_ptr<SessionChannel>& ch,
                             const CorePlan& entry, ObserverList& observers) {
  int failures = 0;
  for (;;) {
    if (ch == nullptr) {
      ch = std::make_unique<SessionChannel>(soc, entry.tam, artifacts);
    }
    try {
      CoreReport r = ch->testCore(entry, observers);
      r.channel_failures = failures;
      return r;
    } catch (const SessionChannelError&) {
      ++failures;
      // The replica TAP/TAM state behind a failed channel is suspect;
      // reopening rebuilds it from the SoC, like respawning a dead worker.
      ch.reset();
      const bool will_retry = failures <= kChannelReopens;
      observers.notify([&](SessionObserver& o) {
        o.onChannelFailure(entry.core_index, failures, will_retry);
      });
      if (will_retry) {
        failpointSleepMs(backoffMs(kReopenBackoffBaseMs, failures));
        continue;
      }
      CoreReport q;
      q.core_index = entry.core_index;
      q.core_name = soc.core(entry.core_index).name();
      q.tam = entry.tam;
      q.depth = soc.topology(entry.core_index).depth();
      q.patterns = entry.patterns;
      q.verdict = CoreVerdict::kQuarantined;
      q.channel_failures = failures;
      observers.notify([&](SessionObserver& o) {
        o.onCoreQuarantined(entry.core_index, failures);
      });
      return q;
    }
  }
}

/// what() of a campaign's failure, for its terminal event.
std::string errorMessage(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown exception";
  }
}

}  // namespace

CampaignService::CampaignService(Soc& soc, CampaignServiceConfig config)
    : soc_(soc),
      workers_(config.workers < 1 ? 1 : config.workers),
      default_quota_(config.default_quota),
      tenant_quotas_(std::move(config.tenant_quotas)) {
  pool_.reserve(static_cast<std::size_t>(workers_));
  for (int t = 0; t < workers_; ++t) {
    pool_.emplace_back([this] { workerLoop(); });
  }
}

CampaignService::~CampaignService() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    for (auto& [id, c] : campaigns_) {
      if (c->state == CampaignState::kQueued ||
          c->state == CampaignState::kRunning) {
        c->cancel_requested.store(true, std::memory_order_relaxed);
      }
    }
  }
  work_cv_.notify_all();
  for (std::thread& th : pool_) th.join();
}

TenantQuota CampaignService::quotaFor(const std::string& tenant) const {
  const auto it = tenant_quotas_.find(tenant);
  return it != tenant_quotas_.end() ? it->second : default_quota_;
}

std::shared_ptr<CampaignService::Campaign> CampaignService::findLocked(
    std::uint64_t id) const {
  const auto it = campaigns_.find(id);
  if (it == campaigns_.end()) {
    throw std::out_of_range("CampaignService: no campaign with id " +
                            std::to_string(id));
  }
  return it->second;
}

CampaignHandle CampaignService::submit(const TestPlan& plan,
                                       const SubmitOptions& opts) {
  // Resolve outside the lock: layout is the expensive part (lint, cost
  // model) and must never stall the reactor or other submitters.
  auto c = std::make_shared<Campaign>();
  c->layout = layoutCampaign(plan, soc_, workers_, artifacts_);
  c->tenant = opts.tenant;
  c->observers.add(opts.observer);
  c->report.soc_name = soc_.name();
  c->report.threads = c->layout.threads;
  c->report.cores.resize(c->layout.entries.size());

  std::unique_lock<std::mutex> lock(mu_);
  if (stopping_) {
    throw AdmissionError(AdmissionError::Reason::kShuttingDown, opts.tenant,
                         "service is shutting down");
  }
  const TenantQuota quota = quotaFor(opts.tenant);
  TenantUsage& use = tenants_[opts.tenant];
  if (quota.max_in_flight > 0 && use.in_flight >= quota.max_in_flight) {
    throw AdmissionError(
        AdmissionError::Reason::kInFlightQuota, opts.tenant,
        "tenant '" + opts.tenant + "' already has " +
            std::to_string(use.in_flight) + " campaign(s) in flight (max " +
            std::to_string(quota.max_in_flight) + ")");
  }
  if (quota.max_predicted_tcks > 0 &&
      use.predicted_tcks + c->layout.predicted_total_tcks >
          quota.max_predicted_tcks) {
    throw AdmissionError(
        AdmissionError::Reason::kPredictedTckQuota, opts.tenant,
        "tenant '" + opts.tenant + "' predicted-TCK budget exceeded: " +
            std::to_string(use.predicted_tcks) + " in flight + " +
            std::to_string(c->layout.predicted_total_tcks) + " requested > " +
            std::to_string(quota.max_predicted_tcks));
  }
  c->id = next_id_++;
  c->tree_mu.reserve(c->layout.groups.size());
  for (const TreeGroup& g : c->layout.groups) {
    c->tree_mu.push_back(&tree_mu_[g.root]);
  }
  if (opts.stream_fd >= 0) {
    c->observers.add(&c->stream.emplace(opts.stream_fd, c->id));
  }
  use.in_flight += 1;
  use.predicted_tcks += c->layout.predicted_total_tcks;
  campaigns_.emplace(c->id, c);
  lock.unlock();

  // Start + placement events, outside mu_ (tenant code runs here) but
  // under the campaign's observer lock — the placement stream in
  // deterministic ascending (TAM, channel) order.
  // The campaign is registered and charged by now, so an observer that
  // throws fails it here, as one that throws during a unit would: finalize
  // releases the quota and await() rethrows.
  std::exception_ptr observer_error;
  try {
    c->observers.notify([&](SessionObserver& o) {
      o.onCampaignStart(static_cast<int>(c->layout.entries.size()),
                        c->layout.threads);
      for (const ChannelUnit& unit : c->layout.units) {
        o.onChannelPlaced(unit.tam, unit.channel,
                          channelLoad(c->layout, unit).cores,
                          unit.predicted_tcks);
      }
    });
  } catch (...) {
    observer_error = std::current_exception();
  }
  c->t0 = std::chrono::steady_clock::now();

  lock.lock();
  c->error = observer_error;
  if (c->error != nullptr || c->layout.units.empty()) {
    finalize(lock, *c);
  } else {
    for (std::size_t u = 0; u < c->layout.units.size(); ++u) {
      queue_.emplace_back(c, u);
    }
    lock.unlock();
    work_cv_.notify_all();
  }
  return CampaignHandle{c->id};
}

void CampaignService::workerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stopping_ and fully drained
    auto [c, u] = queue_.front();
    queue_.pop_front();
    if (c->state == CampaignState::kQueued) {
      c->state = CampaignState::kRunning;
    }
    lock.unlock();
    if (!c->cancel_requested.load(std::memory_order_relaxed)) {
      runUnit(*c, u);
    }
    lock.lock();
    c->units_done += 1;
    if (c->units_done == c->layout.units.size()) finalize(lock, *c);
  }
}

void CampaignService::runUnit(Campaign& c, std::size_t u) {
  const ChannelUnit& unit = c.layout.units[u];
  try {
    for (const int g : unit.group_idx) {
      if (c.cancel_requested.load(std::memory_order_relaxed)) return;
      const TreeGroup& grp =
          c.layout.groups[static_cast<std::size_t>(g)];
      // Whole-tree serialization across campaigns: cores under one
      // top-level ancestor share a wrapper chain and clock domain.
      const std::lock_guard<std::mutex> tree(
          *c.tree_mu[static_cast<std::size_t>(g)]);
      // One SessionChannel bundle per tree group, opened under the tree
      // lock and scoped to it. The channel MUST NOT outlive the group: its
      // TAM replica keeps the last TAM_SELECT latched, and a reused
      // channel's TAP reset passes through Run-Test/Idle — which would fan
      // a system-clock tick into the *previous* tree after its lock was
      // released, racing whichever campaign holds that tree now. A fresh
      // replica has no selection latched, so its reset ticks nothing.
      auto ch = std::make_unique<SessionChannel>(soc_, unit.tam, artifacts_);
      for (const std::size_t i : grp.entry_idx) {
        if (c.cancel_requested.load(std::memory_order_relaxed)) return;
        c.report.cores[i] = testCoreResilient(
            soc_, artifacts_, ch, c.layout.entries[i], c.observers);
        c.cores_done.fetch_add(1, std::memory_order_relaxed);
      }
    }
  } catch (...) {
    const std::lock_guard<std::mutex> lock(mu_);
    if (!c.error) c.error = std::current_exception();
    // Fail fast: remaining units of this campaign become no-ops. Other
    // campaigns are untouched.
    c.cancel_requested.store(true, std::memory_order_relaxed);
  }
}

void CampaignService::finalize(std::unique_lock<std::mutex>& lock,
                               Campaign& c) {
  c.report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - c.t0)
          .count();
  aggregateSessionReport(c.report, c.layout, soc_);

  TenantUsage& use = tenants_[c.tenant];
  use.in_flight -= 1;
  use.predicted_tcks -= c.layout.predicted_total_tcks;

  // Terminal event + observer detach, outside mu_ (tenant code). Every unit
  // has finished, so nothing else notifies this campaign or writes its
  // error any more. Detach happens BEFORE the terminal state is published
  // below, so a tenant that saw await()/status() report a terminal state
  // can destroy its observer immediately — no callback can still be in
  // flight. An observer that throws from the terminal event fails the
  // campaign like one that throws from any other event: the observers
  // after it are told it failed.
  const bool cancelled = c.cancel_requested.load(std::memory_order_relaxed);
  std::exception_ptr error = c.error;
  lock.unlock();
  c.observers.notify([&](SessionObserver& o) {
    try {
      if (error != nullptr) {
        o.onCampaignEnd(campaignStateName(CampaignState::kFailed),
                        errorMessage(error));
      } else if (cancelled) {
        o.onCampaignEnd(campaignStateName(CampaignState::kCancelled), "");
      } else {
        o.onCampaignFinish(c.report);
      }
    } catch (...) {
      if (error == nullptr) error = std::current_exception();
    }
  });
  c.observers.clear();
  lock.lock();
  c.error = error;
  c.state = error != nullptr ? CampaignState::kFailed
            : cancelled      ? CampaignState::kCancelled
                             : CampaignState::kDone;
  // Chip-level TCK accounting: cores that ran did clock the chip, so done
  // and cancelled campaigns credit what they spent; a failed campaign
  // credits nothing.
  if (c.state != CampaignState::kFailed) {
    soc_.tap().creditTcks(c.report.total_tap_clocks);
  }
  done_cv_.notify_all();
}

SessionReport CampaignService::await(CampaignHandle h) {
  std::unique_lock<std::mutex> lock(mu_);
  const std::shared_ptr<Campaign> c = findLocked(h.id);
  done_cv_.wait(lock, [&] {
    return c->state == CampaignState::kDone ||
           c->state == CampaignState::kFailed ||
           c->state == CampaignState::kCancelled;
  });
  // The record goes whatever the outcome. A terminal campaign never
  // changes again, so `c` is read without the lock.
  const CampaignState state = c->state;
  campaigns_.erase(h.id);
  lock.unlock();
  if (state == CampaignState::kFailed) std::rethrow_exception(c->error);
  if (state == CampaignState::kCancelled) throw CampaignCancelled(h.id);
  return c->report;
}

bool CampaignService::cancel(CampaignHandle h) {
  const std::lock_guard<std::mutex> lock(mu_);
  const std::shared_ptr<Campaign> c = findLocked(h.id);
  if (c->state == CampaignState::kDone ||
      c->state == CampaignState::kFailed ||
      c->state == CampaignState::kCancelled) {
    return false;
  }
  c->cancel_requested.store(true, std::memory_order_relaxed);
  return true;
}

CampaignStatus CampaignService::status(CampaignHandle h) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const std::shared_ptr<Campaign> c = findLocked(h.id);
  CampaignStatus s;
  s.id = c->id;
  s.tenant = c->tenant;
  s.state = c->state;
  s.cores_total = static_cast<int>(c->layout.entries.size());
  s.cores_done = c->cores_done.load(std::memory_order_relaxed);
  s.units_total = c->layout.units.size();
  s.units_done = c->units_done;
  s.predicted_total_tcks = c->layout.predicted_total_tcks;
  return s;
}

PlanForecast CampaignService::predict(const TestPlan& plan) {
  return forecastFromLayout(layoutCampaign(plan, soc_, workers_, artifacts_),
                            soc_);
}

void CampaignService::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] {
    for (const auto& [id, c] : campaigns_) {
      if (c->state == CampaignState::kQueued ||
          c->state == CampaignState::kRunning) {
        return false;
      }
    }
    return true;
  });
}

}  // namespace corebist
