// Declarative SoC test campaigns.
//
// A TestPlan says *what* to test — which cores, with what pattern budgets,
// status-poll allowances and retry-on-timeout policy; the CampaignService
// (service/service.hpp) decides *how*: how many channels each TAM opens
// (at most one per worker), which channel runs each core tree, and how a
// failed channel is reopened. This is the scheduling layer the SOC-test
// literature treats as first class above the access mechanism: the access
// protocol (TAP -> TAM -> P1500, flat or hierarchical) is fixed, the
// campaign around it is data.
//
// Per-core entries leave fields at their sentinel value (<= 0 / negative)
// to inherit the plan-wide defaults, so a plan that tests every core the
// same way is just `TestPlan{}.withPatterns(1024)`.
#ifndef COREBIST_CORE_TEST_PLAN_HPP_
#define COREBIST_CORE_TEST_PLAN_HPP_

#include <vector>

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
  /// TAM expected to serve this core. -1 (default) resolves from the SoC
  /// topology; a non-negative value is *checked* against it, and a plan
  /// assigning a core to a TAM that does not serve it is rejected at
  /// resolve time.
  int tam = -1;
};

struct TestPlan {
  // ---- plan-wide defaults, inherited by sentinel CorePlan fields ----
  // Resolution rejects a poll budget below 1, a negative poll idle and
  // negative retries (std::invalid_argument naming the field).
  int patterns = 1024;
  int poll_budget = 4;
  int poll_idle = 16;
  int max_retries = 0;

  /// Campaign entries in execution-priority order. Empty => every core of
  /// the SoC, in index order, with plan defaults.
  std::vector<CorePlan> cores;

  TestPlan& withPatterns(int p) {
    patterns = p;
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
