// Campaign layout: plan resolution, tree grouping and channel placement.
//
// The one resolution + placement pass behind CampaignService::submit() and
// predict(): concretize plan entries against the SoC (sentinel
// inheritance, validation, artifact-gated structural lint), group entries
// by core tree (cores sharing a top-level ancestor share one wrapper chain
// and clock domain — the unit of placement), predict every entry's TCK
// cost with the P1500Ate cost model, and partition each TAM's trees over
// min(workers, trees) channels so as to minimize the predicted makespan.
// The resulting ChannelUnits are the service's unit of scheduling: one
// unit = one TAM channel's serial work list, claimed whole by a reactor
// worker. Running them is the service's job (service.cpp); nothing here
// opens a channel.
//
// Everything here is a pure function of (plan, SoC topology, cost model,
// worker budget): deterministic tie-breaks, no wall-clock feedback. The
// worker budget caps each TAM's channel count, so it shapes placement; it
// never shapes outcomes, which is the bedrock of the service's
// fingerprint guarantee.
#ifndef COREBIST_SERVICE_LAYOUT_HPP_
#define COREBIST_SERVICE_LAYOUT_HPP_

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "core/session_report.hpp"
#include "core/soc.hpp"
#include "core/test_plan.hpp"
#include "tam/ate.hpp"

namespace corebist {

class ArtifactStore;

/// Predicted cost of one plan entry (what-if output; plan order).
struct CoreForecast {
  int core_index = -1;
  int tam = 0;
  int depth = 0;
  std::size_t predicted_tap_clocks = 0;  // P1500Ate cost-model session cost
  std::size_t predicted_bist_cycles = 0;
};

/// Predicted placement for one TAM: the channel loads the service would
/// apply (ChannelLoad::actual_tcks stays 0 — nothing ran).
struct TamForecast {
  int tam_index = 0;
  std::string name;
  int channels = 1;  // concurrent channels the placement uses
  std::vector<ChannelLoad> channel_loads;  // ascending channel ordinal
  std::size_t predicted_tap_clocks = 0;    // summed over the TAM's cores
  std::size_t predicted_makespan_tcks = 0;  // max channel load
};

/// What-if result of predict(): the placement a plan would get and its
/// predicted makespan, computed purely from the P1500Ate cost model — no
/// channel is opened, no core is clocked. The makespan assumes one worker
/// per channel; the worker budget bounds real concurrency.
struct PlanForecast {
  std::vector<CoreForecast> cores;  // plan order
  std::vector<TamForecast> tams;    // ascending TAM index; only TAMs with work
  std::size_t predicted_total_tcks = 0;
  std::size_t predicted_makespan_tcks = 0;  // max over every channel
};

/// The unit of placement: one core tree's entries, in plan order. Cores
/// sharing a top-level ancestor share a wrapper chain and clock domain, so
/// they must never be driven by two channels at once. `root` is the
/// top-level ancestor's core index — the service keys its per-tree
/// serialization locks on it.
struct TreeGroup {
  int tam = 0;
  int root = -1;
  std::vector<std::size_t> entry_idx;
  std::size_t predicted_tcks = 0;  // summed P1500Ate cost-model load
};

/// One TAM channel's work list: tree groups that run serially on a single
/// SessionChannel. The executable unit the reactor workers claim and the
/// grain of the predicted/actual makespan accounting.
struct ChannelUnit {
  int tam = 0;
  int channel = 0;                 // ordinal within the TAM
  std::vector<int> group_idx;      // groups, ascending plan order
  std::size_t predicted_tcks = 0;  // summed group predictions
};

/// Everything execution and prediction share: the resolved entries, their
/// predicted costs, the tree groups and the channel placement.
struct CampaignLayout {
  std::vector<CorePlan> entries;
  std::vector<P1500Ate::SessionCost> entry_costs;  // parallel to entries
  std::vector<TreeGroup> groups;
  std::vector<ChannelUnit> units;  // ascending (tam, channel)
  /// Per TAM index: channels opened, min(threads, the TAM's trees); 0 for
  /// TAMs with no work.
  std::vector<int> channels_by_tam;
  int threads = 1;  // worker budget capped by the available work

  /// Summed predicted TCKs over every entry — the admission-control load
  /// number quotas are charged against.
  std::size_t predicted_total_tcks = 0;
};

/// Resolve + validate `plan` against `soc` and place its work under a
/// budget of `worker_budget` concurrent workers. Throws
/// std::invalid_argument for plans that name unknown or duplicated cores,
/// assign a core to a TAM that does not serve it, request pattern budgets
/// beyond a core's counter capacity, resolve to a poll budget below 1, a
/// negative poll idle or negative retries, or reference a module failing
/// structural lint. `artifacts` serves the
/// lint gate from the shared cache.
[[nodiscard]] CampaignLayout layoutCampaign(const TestPlan& plan, Soc& soc,
                                            int worker_budget,
                                            ArtifactStore& artifacts);

/// One channel's cores in execution order and its predicted load; with
/// `done` (the campaign's reports, parallel to `layout.entries`) also the
/// TCKs those cores actually spent.
[[nodiscard]] ChannelLoad channelLoad(const CampaignLayout& layout,
                                      const ChannelUnit& unit,
                                      std::span<const CoreReport> done = {});

/// Project a layout into the what-if forecast shape (zero TCKs spent).
[[nodiscard]] PlanForecast forecastFromLayout(const CampaignLayout& layout,
                                              Soc& soc);

/// Fill `report`'s aggregate fields from the per-core records: TCK totals,
/// per-TAM slices in ascending TAM index (plan order within each) and the
/// predicted-vs-actual channel/makespan accounting. wall_seconds must
/// already be set (utilization divides by it); threads and soc_name are
/// the caller's.
void aggregateSessionReport(SessionReport& report,
                            const CampaignLayout& layout, Soc& soc);

}  // namespace corebist

#endif  // COREBIST_SERVICE_LAYOUT_HPP_
