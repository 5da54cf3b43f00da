// Declarative SoC test campaigns.
//
// A TestPlan says *what* to test — which cores, with what pattern budgets,
// status-poll allowances, retry-on-timeout policy and optional coverage
// targets — and how many channels each TAM may open; the CampaignService
// (service/service.hpp) decides *how*, over its fixed pool of workers. This
// is the scheduling layer the SOC-test literature treats as first class
// above the access mechanism: the access protocol (TAP -> TAM -> P1500,
// flat or hierarchical) is fixed, the campaign around it is data.
//
// Per-core entries leave fields at their sentinel value (<= 0 / negative)
// to inherit the plan-wide defaults, so a plan that tests every core the
// same way is just `TestPlan{}.withPatterns(1024)`.
#ifndef COREBIST_CORE_TEST_PLAN_HPP_
#define COREBIST_CORE_TEST_PLAN_HPP_

#include <vector>

#include "fault/backend.hpp"

namespace corebist {

/// One core's campaign entry. Sentinel values inherit the TestPlan default.
struct CorePlan {
  int core_index = -1;
  /// At-speed patterns per attempt (1 .. the core's counter capacity).
  int patterns = 0;  // <= 0 => plan default
  /// Run-Test/Idle TCKs before the first status poll; < 0 => patterns + 4
  /// (enough for the whole run, the legacy session behavior). Smaller
  /// budgets make the poll loop — and the timeout machinery — do real work.
  int warmup_idle = -1;
  /// Status polls before an attempt is declared timed out.
  int poll_budget = 0;  // <= 0 => plan default
  /// Run-Test/Idle TCKs between unsuccessful polls.
  int poll_idle = 0;  // <= 0 => plan default
  /// Full protocol re-runs after a timeout.
  int max_retries = -1;  // < 0 => plan default
  /// Minimum per-module signature-qualified stuck-at coverage (%). > 0
  /// fault-simulates each module under the BIST stimulus with its MISR
  /// model attached (expensive) and fails the core below the target.
  double coverage_target = -1.0;  // < 0 => plan default
  /// TAM expected to serve this core. -1 (default) resolves from the SoC
  /// topology; a non-negative value is *checked* against it, and a plan
  /// assigning a core to a TAM that does not serve it is rejected at
  /// resolve time.
  int tam = -1;
};

/// Cap on concurrent session channels for one TAM.
struct TamChannelLimit {
  int tam = 0;
  int channels = 1;
};

struct TestPlan {
  /// Upper bound a per-TAM channel limit may take (an emulation guard, not
  /// a hardware property; plans beyond it are rejected at resolve time).
  static constexpr int kMaxChannelsPerTam = 64;

  // ---- plan-wide defaults, inherited by sentinel CorePlan fields ----
  int patterns = 1024;
  int poll_budget = 4;
  int poll_idle = 16;
  int max_retries = 0;
  double coverage_target = 0.0;  // 0 = no coverage measurement

  /// Default cap on concurrent channels per TAM; 0 = no cap (bounded by
  /// the service's workers and the available work).
  int channels_per_tam = 0;

  /// Fault-sim backend for coverage measurement. kSerial by default: the
  /// session channel is the unit of parallelism in this layer, and coverage
  /// probes run on service worker threads, where forking a process fleet
  /// per module (kResilient) or nesting a thread pool (kThreaded) only pays
  /// off for big modules — opt in per plan when it does.
  FsimBackend coverage_backend = FsimBackend::kSerial;
  /// Orchestrator workers for coverage measurement (kThreaded /
  /// kResilient); 0 => one per hardware thread.
  int coverage_workers = 1;

  // ---- resilience, plan-wide (see src/core/README.md, "Quarantine") ----
  /// Times a core's session channel may fail (SessionChannelError) and be
  /// reopened before the service stops retrying that core. Also the
  /// per-shard retry budget of kResilient coverage probes.
  int max_shard_retries = 2;
  /// Exponential-backoff base between channel reopen attempts: retry k
  /// sleeps min(backoff_base_ms << (k-1), 250) ms. <= 0 disables sleeping.
  int backoff_base_ms = 1;
  /// After the retry budget: true = record the core as `quarantined` and
  /// continue the campaign (the default — one sick core tree degrades that
  /// core, not the campaign); false = rethrow the channel error.
  bool degrade_on_failure = true;

  /// Per-TAM overrides of channels_per_tam.
  std::vector<TamChannelLimit> tam_channels;

  /// Campaign entries in execution-priority order. Empty => every core of
  /// the SoC, in index order, with plan defaults.
  std::vector<CorePlan> cores;

  TestPlan& withPatterns(int p) {
    patterns = p;
    return *this;
  }
  TestPlan& withCoverageTarget(double percent) {
    coverage_target = percent;
    return *this;
  }
  TestPlan& withCoverageBackend(FsimBackend backend, int workers = 1) {
    coverage_backend = backend;
    coverage_workers = workers;
    return *this;
  }
  TestPlan& withResilience(int shard_retries, int backoff_ms = 1,
                           bool degrade = true) {
    max_shard_retries = shard_retries;
    backoff_base_ms = backoff_ms;
    degrade_on_failure = degrade;
    return *this;
  }
  TestPlan& withChannelsPerTam(int channels) {
    channels_per_tam = channels;
    return *this;
  }
  TestPlan& withTamChannels(int tam, int channels) {
    tam_channels.push_back(TamChannelLimit{tam, channels});
    return *this;
  }
  TestPlan& addCore(CorePlan core) {
    cores.push_back(core);
    return *this;
  }
  TestPlan& addCore(int core_index) {
    cores.push_back(CorePlan{.core_index = core_index});
    return *this;
  }
};

}  // namespace corebist

#endif  // COREBIST_CORE_TEST_PLAN_HPP_
