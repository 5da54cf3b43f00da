#include "service/layout.hpp"

#include <algorithm>
#include <stdexcept>

#include "analyze/lint.hpp"
#include "service/artifacts.hpp"

namespace corebist {
namespace {

/// Admission lint: every module netlist of a referenced core must be free
/// of error-severity structural findings before any channel drives it. The
/// BIST engine's attach path never levelizes, so without this gate a
/// combinational loop (or a floating/doubly-driven net) only surfaces as a
/// mid-campaign levelize throw or a garbage signature; here it is rejected
/// at plan-resolve time with the violated rule's name. The artifact store
/// runs the lint once per module content, not once per campaign.
void lintCoreModules(Soc& soc, int core_index, ArtifactStore& artifacts) {
  const WrappedCore& core = soc.core(core_index);
  const BistEngine& engine = core.engine();
  for (int m = 0; m < engine.moduleCount(); ++m) {
    if (const Diagnostic* err = artifacts.lint(core, m).firstError()) {
      throw std::invalid_argument(
          "TestPlan: core " + std::to_string(core_index) + " module " +
          std::to_string(m) + " ('" + engine.module(m).name() +
          "') fails structural lint rule '" + err->rule +
          "': " + err->message);
    }
  }
}

/// Concretize a plan entry against the plan-wide defaults and validate it
/// against the SoC (existence, TAM assignment, counter capacity) and the
/// protocol (poll budget, poll idle, retries).
CorePlan resolveEntry(const TestPlan& plan, const CorePlan& entry, Soc& soc,
                      ArtifactStore& artifacts) {
  CorePlan r = entry;
  if (r.core_index < 0 || r.core_index >= soc.coreCount()) {
    throw std::invalid_argument("TestPlan: no core with index " +
                                std::to_string(r.core_index));
  }
  lintCoreModules(soc, r.core_index, artifacts);
  const Soc::CoreTopology& topo = soc.topology(r.core_index);
  if (r.tam >= 0 && r.tam != topo.tam) {
    throw std::invalid_argument(
        "TestPlan: core " + std::to_string(r.core_index) +
        " is served by TAM " + std::to_string(topo.tam) + ", not TAM " +
        std::to_string(r.tam));
  }
  r.tam = topo.tam;
  if (r.patterns <= 0) r.patterns = plan.patterns;
  if (r.poll_budget <= 0) r.poll_budget = plan.poll_budget;
  if (r.poll_idle <= 0) r.poll_idle = plan.poll_idle;
  if (r.max_retries < 0) r.max_retries = plan.max_retries;
  if (r.warmup_idle < 0) r.warmup_idle = r.patterns + 4;
  const int max_patterns =
      soc.core(r.core_index).controlUnit().maxPatterns();
  if (r.patterns < 1 || r.patterns > max_patterns) {
    throw std::invalid_argument(
        "TestPlan: core " + std::to_string(r.core_index) + " pattern budget " +
        std::to_string(r.patterns) + " outside [1, " +
        std::to_string(max_patterns) + "] (the WCDR count would truncate)");
  }
  // Only plan-wide defaults can get here out of range: every sentinel
  // CorePlan value inherits. A budget below 1 polls nothing, a negative
  // idle wraps to an endless Run-Test/Idle dwell, and negative retries run
  // no attempt at all.
  const auto require_at_least = [&](const char* field, int value, int min) {
    if (value < min) {
      throw std::invalid_argument(
          "TestPlan: core " + std::to_string(r.core_index) + " " + field +
          " " + std::to_string(value) + " below " + std::to_string(min));
    }
  };
  require_at_least("poll_budget", r.poll_budget, 1);
  require_at_least("poll_idle", r.poll_idle, 0);
  require_at_least("max_retries", r.max_retries, 0);
  return r;
}

std::vector<CorePlan> resolvePlan(const TestPlan& plan, Soc& soc,
                                  ArtifactStore& artifacts) {
  std::vector<CorePlan> entries;
  if (plan.cores.empty()) {
    entries.reserve(static_cast<std::size_t>(soc.coreCount()));
    for (int c = 0; c < soc.coreCount(); ++c) {
      entries.push_back(
          resolveEntry(plan, CorePlan{.core_index = c}, soc, artifacts));
    }
  } else {
    entries.reserve(plan.cores.size());
    std::vector<char> seen(static_cast<std::size_t>(soc.coreCount()), 0);
    for (const CorePlan& e : plan.cores) {
      entries.push_back(resolveEntry(plan, e, soc, artifacts));
      // One entry per core: channels must never drive one wrapper twice
      // concurrently, and serially a second entry would retest, not extend.
      char& flag = seen[static_cast<std::size_t>(entries.back().core_index)];
      if (flag != 0) {
        throw std::invalid_argument(
            "TestPlan: core " + std::to_string(entries.back().core_index) +
            " listed more than once");
      }
      flag = 1;
    }
  }
  return entries;
}

std::vector<TreeGroup> groupByTree(const std::vector<CorePlan>& entries,
                                   Soc& soc) {
  std::vector<TreeGroup> groups;
  std::vector<int> group_of_root(static_cast<std::size_t>(soc.coreCount()),
                                 -1);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Soc::CoreTopology& topo = soc.topology(entries[i].core_index);
    int& g = group_of_root[static_cast<std::size_t>(topo.root)];
    if (g < 0) {
      g = static_cast<int>(groups.size());
      groups.push_back(TreeGroup{topo.tam, topo.root, {}, 0});
    }
    groups[static_cast<std::size_t>(g)].entry_idx.push_back(i);
  }
  return groups;
}

/// P1500Ate cost-model prediction for one resolved plan entry.
P1500Ate::SessionCost predictEntryCost(Soc& soc, const CorePlan& e) {
  const Soc::CoreTopology& topo = soc.topology(e.core_index);
  return P1500Ate::predictSessionCost(
      soc.tap().irWidth(), topo.depth(), soc.core(e.core_index).moduleCount(),
      e.patterns, e.warmup_idle, e.poll_budget, e.poll_idle);
}

/// Greedy pass shared by both candidates: walk `order` (group ids), placing
/// each group onto the currently least-loaded channel. Equal-load channels
/// are broken by ascending channel index — a fixed total order, so the
/// placement is a pure function of the plan and never depends on container
/// iteration order (asserted by tests/placement_test.cpp).
std::vector<std::vector<int>> assignGreedy(const std::vector<int>& order,
                                           const std::vector<TreeGroup>& groups,
                                           int channels) {
  std::vector<std::vector<int>> assignment(
      static_cast<std::size_t>(channels));
  std::vector<std::size_t> load(static_cast<std::size_t>(channels), 0);
  for (const int g : order) {
    std::size_t best = 0;
    for (std::size_t c = 1; c < load.size(); ++c) {
      if (load[c] < load[best]) best = c;  // strict: ties keep lowest index
    }
    assignment[best].push_back(g);
    load[best] += groups[static_cast<std::size_t>(g)].predicted_tcks;
  }
  return assignment;
}

/// Local-exchange refinement: repeatedly move (or swap) a group off the
/// max-loaded channel when doing so strictly lowers the pair's max load.
/// Deterministic: channels and groups are scanned in ascending order and
/// the first strict improvement is applied. Terminates — every step
/// strictly reduces the (makespan, #channels-at-makespan) potential — but
/// a pass cap keeps the worst case bounded anyway. Returns the refined
/// assignment's predicted makespan.
std::size_t refineByExchange(std::vector<std::vector<int>>& assignment,
                             const std::vector<TreeGroup>& groups) {
  const auto tcks = [&](int g) {
    return groups[static_cast<std::size_t>(g)].predicted_tcks;
  };
  std::vector<std::size_t> load(assignment.size(), 0);
  for (std::size_t c = 0; c < assignment.size(); ++c) {
    for (const int g : assignment[c]) load[c] += tcks(g);
  }
  for (int pass = 0; pass < 256; ++pass) {
    std::size_t hi = 0;
    for (std::size_t c = 1; c < load.size(); ++c) {
      if (load[c] > load[hi]) hi = c;
    }
    bool improved = false;
    for (std::size_t gi = 0; gi < assignment[hi].size() && !improved; ++gi) {
      const int g = assignment[hi][gi];
      for (std::size_t c = 0; c < assignment.size() && !improved; ++c) {
        if (c == hi) continue;
        // Move g: hi sheds tcks(g), c gains it.
        if (std::max(load[hi] - tcks(g), load[c] + tcks(g)) < load[hi]) {
          assignment[hi].erase(assignment[hi].begin() +
                               static_cast<std::ptrdiff_t>(gi));
          assignment[c].push_back(g);
          load[hi] -= tcks(g);
          load[c] += tcks(g);
          improved = true;
          break;
        }
        // Swap g with a smaller group on c.
        for (std::size_t hj = 0; hj < assignment[c].size(); ++hj) {
          const int h = assignment[c][hj];
          if (tcks(h) >= tcks(g)) continue;
          const std::size_t new_hi = load[hi] - tcks(g) + tcks(h);
          const std::size_t new_c = load[c] - tcks(h) + tcks(g);
          if (std::max(new_hi, new_c) < load[hi]) {
            assignment[hi][gi] = h;
            assignment[c][hj] = g;
            load[hi] = new_hi;
            load[c] = new_c;
            improved = true;
            break;
          }
        }
      }
    }
    if (!improved) break;
  }
  return *std::max_element(load.begin(), load.end());
}

/// Place one TAM's tree groups onto its channels. Two candidates: the
/// greedy least-loaded walk in plan order, and an LPT walk (longest
/// predicted load first), each refined by local exchange. The LPT
/// placement wins unless the plan-order one predicts a strictly smaller
/// makespan, so the result never predicts worse than the plain plan-order
/// walk.
std::vector<std::vector<int>> placeTamGroups(
    const std::vector<int>& tam_group_ids, const std::vector<TreeGroup>& groups,
    int channels) {
  std::vector<std::vector<int>> plan_order =
      assignGreedy(tam_group_ids, groups, channels);
  std::vector<int> lpt_order = tam_group_ids;
  std::stable_sort(lpt_order.begin(), lpt_order.end(),
                   [&](int a, int b) {
                     return groups[static_cast<std::size_t>(a)].predicted_tcks >
                            groups[static_cast<std::size_t>(b)].predicted_tcks;
                   });
  std::vector<std::vector<int>> lpt = assignGreedy(lpt_order, groups, channels);
  const std::size_t lpt_makespan = refineByExchange(lpt, groups);
  if (refineByExchange(plan_order, groups) < lpt_makespan) return plan_order;
  return lpt;
}

}  // namespace

CampaignLayout layoutCampaign(const TestPlan& plan, Soc& soc,
                              int worker_budget, ArtifactStore& artifacts) {
  CampaignLayout layout;
  layout.entries = resolvePlan(plan, soc, artifacts);
  layout.groups = groupByTree(layout.entries, soc);

  layout.entry_costs.reserve(layout.entries.size());
  for (const CorePlan& e : layout.entries) {
    layout.entry_costs.push_back(predictEntryCost(soc, e));
    layout.predicted_total_tcks += layout.entry_costs.back().tap_clocks;
  }
  for (TreeGroup& g : layout.groups) {
    for (const std::size_t i : g.entry_idx) {
      g.predicted_tcks += layout.entry_costs[i].tap_clocks;
    }
  }

  const int trees = static_cast<int>(layout.groups.size());
  layout.threads =
      std::max(1, trees == 0 ? worker_budget : std::min(worker_budget, trees));

  layout.channels_by_tam.assign(static_cast<std::size_t>(soc.tamCount()), 0);
  for (int t = 0; t < soc.tamCount(); ++t) {
    std::vector<int> tam_group_ids;
    for (std::size_t g = 0; g < layout.groups.size(); ++g) {
      if (layout.groups[g].tam == t) tam_group_ids.push_back(static_cast<int>(g));
    }
    if (tam_group_ids.empty()) continue;
    const int channels =
        std::min(layout.threads, static_cast<int>(tam_group_ids.size()));
    layout.channels_by_tam[static_cast<std::size_t>(t)] = channels;
    std::vector<std::vector<int>> assignment =
        placeTamGroups(tam_group_ids, layout.groups, channels);
    for (int ch = 0; ch < channels; ++ch) {
      ChannelUnit unit;
      unit.tam = t;
      unit.channel = ch;
      unit.group_idx = std::move(assignment[static_cast<std::size_t>(ch)]);
      // Execution order within a channel is plan order (it never affects
      // the channel's makespan, and keeps reports deterministic).
      std::sort(unit.group_idx.begin(), unit.group_idx.end());
      for (const int g : unit.group_idx) {
        unit.predicted_tcks +=
            layout.groups[static_cast<std::size_t>(g)].predicted_tcks;
      }
      layout.units.push_back(std::move(unit));
    }
  }
  return layout;
}

ChannelLoad channelLoad(const CampaignLayout& layout, const ChannelUnit& unit,
                        std::span<const CoreReport> done) {
  ChannelLoad cl;
  cl.channel = unit.channel;
  cl.predicted_tcks = unit.predicted_tcks;
  for (const int g : unit.group_idx) {
    for (const std::size_t i :
         layout.groups[static_cast<std::size_t>(g)].entry_idx) {
      cl.cores.push_back(layout.entries[i].core_index);
      if (!done.empty()) cl.actual_tcks += done[i].tap_clocks;
    }
  }
  return cl;
}

PlanForecast forecastFromLayout(const CampaignLayout& layout, Soc& soc) {
  PlanForecast forecast;
  forecast.predicted_total_tcks = layout.predicted_total_tcks;
  forecast.cores.reserve(layout.entries.size());
  for (std::size_t i = 0; i < layout.entries.size(); ++i) {
    const CorePlan& e = layout.entries[i];
    CoreForecast cf;
    cf.core_index = e.core_index;
    cf.tam = e.tam;
    cf.depth = soc.topology(e.core_index).depth();
    cf.predicted_tap_clocks = layout.entry_costs[i].tap_clocks;
    cf.predicted_bist_cycles = layout.entry_costs[i].bist_cycles;
    forecast.cores.push_back(std::move(cf));
  }

  for (int t = 0; t < soc.tamCount(); ++t) {
    if (layout.channels_by_tam[static_cast<std::size_t>(t)] == 0) continue;
    TamForecast tf;
    tf.tam_index = t;
    tf.name = soc.tamName(t);
    tf.channels = layout.channels_by_tam[static_cast<std::size_t>(t)];
    for (const ChannelUnit& unit : layout.units) {
      if (unit.tam != t) continue;
      ChannelLoad cl = channelLoad(layout, unit);
      tf.predicted_tap_clocks += cl.predicted_tcks;
      tf.predicted_makespan_tcks =
          std::max(tf.predicted_makespan_tcks, cl.predicted_tcks);
      tf.channel_loads.push_back(std::move(cl));
    }
    forecast.predicted_makespan_tcks =
        std::max(forecast.predicted_makespan_tcks, tf.predicted_makespan_tcks);
    forecast.tams.push_back(std::move(tf));
  }
  return forecast;
}

void aggregateSessionReport(SessionReport& report,
                            const CampaignLayout& layout, Soc& soc) {
  const std::vector<CorePlan>& entries = layout.entries;
  report.total_tap_clocks = 0;
  report.total_bist_cycles = 0;
  for (const CoreReport& c : report.cores) {
    report.total_tap_clocks += c.tap_clocks;
    report.total_bist_cycles += c.bist_cycles;
  }

  // Per-TAM slices, ascending TAM index, plan order within each, with the
  // placement's predicted-vs-actual channel accounting. "Actual" per
  // channel is the measured tap_clocks of the cores placed on it — a
  // deterministic quantity (every scan is fixed-length), so predicted vs
  // actual cleanly isolates cost-model error from wall-clock noise.
  report.tams.clear();
  report.predicted_makespan_tcks = 0;
  report.actual_makespan_tcks = 0;
  for (int t = 0; t < soc.tamCount(); ++t) {
    if (layout.channels_by_tam[static_cast<std::size_t>(t)] == 0) continue;
    TamReport tr;
    tr.tam_index = t;
    tr.name = soc.tamName(t);
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (entries[i].tam != t) continue;
      tr.core_order.push_back(entries[i].core_index);
      tr.tap_clocks += report.cores[i].tap_clocks;
      tr.bist_cycles += report.cores[i].bist_cycles;
      tr.busy_seconds += report.cores[i].seconds;
      tr.predicted_tap_clocks += layout.entry_costs[i].tap_clocks;
    }
    tr.channels = layout.channels_by_tam[static_cast<std::size_t>(t)];
    if (report.wall_seconds > 0.0 && tr.channels > 0) {
      tr.utilization = jsonFinite(
          tr.busy_seconds / (report.wall_seconds * tr.channels));
    }
    for (const ChannelUnit& unit : layout.units) {
      if (unit.tam != t) continue;
      ChannelLoad cl = channelLoad(layout, unit, report.cores);
      tr.predicted_makespan_tcks =
          std::max(tr.predicted_makespan_tcks, cl.predicted_tcks);
      tr.actual_makespan_tcks =
          std::max(tr.actual_makespan_tcks, cl.actual_tcks);
      tr.channel_loads.push_back(std::move(cl));
    }
    report.predicted_makespan_tcks =
        std::max(report.predicted_makespan_tcks, tr.predicted_makespan_tcks);
    report.actual_makespan_tcks =
        std::max(report.actual_makespan_tcks, tr.actual_makespan_tcks);
    report.tams.push_back(std::move(tr));
  }
}

}  // namespace corebist
