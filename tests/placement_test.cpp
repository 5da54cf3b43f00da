// Makespan-aware TAM placement and the what-if API: the P1500Ate cost
// model must equal the measured TCK accounting (the protocol is bit-banged
// and fixed-length, so prediction is arithmetic, not estimation), the
// placement pass must be deterministic with an index-order tie-break, it
// must never predict a worse makespan than the plan-order greedy walk
// (planOrderLoads below, the reference) and must strictly beat it on
// ascending budgets, and every placement field must stay out of the
// campaign fingerprint. Also the JSON finite-guard regression: inf/NaN
// doubles (zero-wall-time campaigns) must never reach the artifact.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/session_report.hpp"
#include "core/soc.hpp"
#include "fixtures.hpp"
#include "service/service.hpp"
#include "tam/ate.hpp"

namespace corebist {
namespace {

using fixtures::makeToyModule;
using fixtures::runCampaign;

std::unique_ptr<WrappedCore> makeCore(const std::string& name, int twist,
                                      int modules = 1) {
  auto core = std::make_unique<WrappedCore>(name);
  for (int m = 0; m < modules; ++m) core->addModule(makeToyModule(twist + m));
  return core;
}

/// `tams` TAMs, `per_tam` flat cores each, plus one nested core under each
/// TAM's first top-level core.
std::unique_ptr<Soc> makeMultiTamSoc(int tams, int per_tam) {
  auto soc = std::make_unique<Soc>("place_soc");
  for (int t = 1; t < tams; ++t) (void)soc->addTam();
  std::vector<int> first(static_cast<std::size_t>(tams), -1);
  for (int c = 0; c < tams * per_tam; ++c) {
    const int tam = c % tams;
    const int idx =
        soc->attachCore(makeCore("c" + std::to_string(c), c), tam);
    if (first[static_cast<std::size_t>(tam)] < 0) {
      first[static_cast<std::size_t>(tam)] = idx;
    }
  }
  for (int t = 0; t < tams; ++t) {
    (void)soc->attachChildCore(makeCore("n" + std::to_string(t), 50 + t),
                               first[static_cast<std::size_t>(t)]);
  }
  return soc;
}

TEST(Placement, PredictionEqualsMeasuredTapClocks) {
  // Every scan in the session protocol is fixed-length, so with the default
  // warmup (dwell covers the whole run, exactly one poll) the cost model is
  // not an estimate: per-core predicted TCKs equal the measured tap_clocks,
  // including the doubled wrapper-chain cost of nested (depth-1) cores.
  auto soc = makeMultiTamSoc(2, 2);
  CampaignService service(*soc, CampaignServiceConfig{.workers = 1});
  const TestPlan plan = TestPlan{}.withPatterns(200);
  const PlanForecast forecast = service.predict(plan);
  const SessionReport report = service.await(service.submit(plan));
  ASSERT_EQ(forecast.cores.size(), report.cores.size());
  bool saw_nested = false;
  for (std::size_t i = 0; i < report.cores.size(); ++i) {
    EXPECT_EQ(forecast.cores[i].core_index, report.cores[i].core_index);
    EXPECT_EQ(forecast.cores[i].predicted_tap_clocks,
              report.cores[i].tap_clocks)
        << "core " << report.cores[i].core_index << " depth "
        << report.cores[i].depth;
    EXPECT_EQ(forecast.cores[i].predicted_bist_cycles,
              report.cores[i].bist_cycles);
    if (forecast.cores[i].depth > 0) saw_nested = true;
  }
  EXPECT_TRUE(saw_nested);
  EXPECT_EQ(forecast.predicted_total_tcks, report.total_tap_clocks);
  // With exact per-core predictions the per-channel actuals match too.
  for (const TamReport& tr : report.tams) {
    EXPECT_EQ(tr.predicted_tap_clocks, tr.tap_clocks);
    EXPECT_EQ(tr.predicted_makespan_tcks, tr.actual_makespan_tcks);
    for (const ChannelLoad& cl : tr.channel_loads) {
      EXPECT_EQ(cl.predicted_tcks, cl.actual_tcks);
    }
  }
  EXPECT_EQ(report.predicted_makespan_tcks, report.actual_makespan_tcks);
}

TEST(Placement, PredictSpendsNoTcks) {
  auto soc = makeMultiTamSoc(2, 3);
  CampaignService service(*soc);
  const std::size_t before = soc->tap().tckCount();
  const PlanForecast forecast = service.predict(TestPlan{}.withPatterns(300));
  EXPECT_GT(forecast.predicted_total_tcks, 0u);
  EXPECT_EQ(soc->tap().tckCount(), before);
}

TEST(Placement, PredictValidatesLikeRun) {
  auto soc = makeMultiTamSoc(1, 2);
  CampaignService service(*soc);
  TestPlan bad;
  bad.addCore(99);
  EXPECT_THROW((void)service.predict(bad), std::invalid_argument);
  TestPlan wrong_tam;
  wrong_tam.cores.push_back(CorePlan{.core_index = 0, .tam = 7});
  EXPECT_THROW((void)service.predict(wrong_tam), std::invalid_argument);
}

/// Reference placement: the plan-order greedy walk. Per TAM of `f`, the
/// TAM's core trees in plan order (a tree's load is the summed predicted
/// TCKs of its entries), each onto the least-loaded of the TAM's channels,
/// ties to the lowest index. Returns each TAM's channel loads, in `f.tams`
/// order. The service's placement keeps this walk as a candidate and must
/// never predict worse than it.
std::vector<std::vector<std::size_t>> planOrderLoads(const PlanForecast& f,
                                                     const Soc& soc) {
  std::vector<std::vector<std::size_t>> loads;
  for (const TamForecast& tf : f.tams) {
    std::vector<int> roots;
    std::vector<std::size_t> trees;
    for (const CoreForecast& cf : f.cores) {
      if (cf.tam != tf.tam_index) continue;
      const int root = soc.topology(cf.core_index).root;
      const auto it = std::find(roots.begin(), roots.end(), root);
      if (it == roots.end()) {
        roots.push_back(root);
        trees.push_back(cf.predicted_tap_clocks);
      } else {
        trees[static_cast<std::size_t>(it - roots.begin())] +=
            cf.predicted_tap_clocks;
      }
    }
    std::vector<std::size_t> channels(static_cast<std::size_t>(tf.channels),
                                      0);
    for (const std::size_t tree : trees) {
      *std::min_element(channels.begin(), channels.end()) += tree;
    }
    loads.push_back(std::move(channels));
  }
  return loads;
}

std::size_t makespanOf(const std::vector<std::size_t>& channel_loads) {
  return *std::max_element(channel_loads.begin(), channel_loads.end());
}

/// Each TAM's predicted channel loads, in `f.tams` order.
std::vector<std::vector<std::size_t>> forecastLoads(const PlanForecast& f) {
  std::vector<std::vector<std::size_t>> loads;
  for (const TamForecast& tf : f.tams) {
    loads.emplace_back();
    for (const ChannelLoad& cl : tf.channel_loads) {
      loads.back().push_back(cl.predicted_tcks);
    }
  }
  return loads;
}

/// Max - min channel load within each TAM, summed over TAMs: the imbalance
/// the placement pass minimizes.
std::size_t predictedSpread(const std::vector<std::vector<std::size_t>>& l) {
  std::size_t spread = 0;
  for (const std::vector<std::size_t>& tam : l) {
    const auto [lo, hi] = std::minmax_element(tam.begin(), tam.end());
    spread += *hi - *lo;
  }
  return spread;
}

TEST(Placement, PredictedMakespanMonotoneInPatternBudget) {
  auto soc = makeMultiTamSoc(2, 3);
  CampaignService service(*soc, CampaignServiceConfig{.workers = 4});
  std::size_t prev = 0;
  std::size_t prev_reference = 0;
  for (const int patterns : {64, 128, 256, 512}) {
    const PlanForecast f =
        service.predict(TestPlan{}.withPatterns(patterns));
    EXPECT_GT(f.predicted_makespan_tcks, prev) << "patterns " << patterns;
    prev = f.predicted_makespan_tcks;
    std::size_t reference = 0;
    for (const std::vector<std::size_t>& tam : planOrderLoads(f, *soc)) {
      reference = std::max(reference, makespanOf(tam));
    }
    EXPECT_GT(reference, prev_reference) << "patterns " << patterns;
    prev_reference = reference;
  }
}

TEST(Placement, RespectsChannelLimits) {
  // The worker count caps each TAM's channels.
  auto soc = makeMultiTamSoc(2, 4);
  for (const int limit : {1, 2, 3}) {
    CampaignService service(*soc, CampaignServiceConfig{.workers = limit});
    const PlanForecast f = service.predict(TestPlan{}.withPatterns(100));
    ASSERT_EQ(f.tams.size(), 2u);
    for (const TamForecast& tf : f.tams) {
      EXPECT_LE(tf.channels, limit);
      EXPECT_EQ(tf.channel_loads.size(),
                static_cast<std::size_t>(tf.channels));
      // Every channel the placement opens carries work.
      for (const ChannelLoad& cl : tf.channel_loads) {
        EXPECT_FALSE(cl.cores.empty());
        EXPECT_GT(cl.predicted_tcks, 0u);
      }
    }
  }
}

TEST(Placement, NeverPredictsWorseThanPlanOrder) {
  // 20 randomized multi-TAM topologies with heterogeneous pattern budgets:
  // the placement keeps whichever refined candidate predicts the smaller
  // makespan, one of them the plan-order walk, so it can never lose to the
  // plan-order reference — per TAM and overall.
  std::mt19937 rng(20260808u);
  for (int trial = 0; trial < 20; ++trial) {
    const int tams = 1 + static_cast<int>(rng() % 3);
    const int per_tam = 2 + static_cast<int>(rng() % 4);
    auto soc = makeMultiTamSoc(tams, per_tam);
    const int workers = 1 + static_cast<int>(rng() % 3);
    CampaignService service(*soc, CampaignServiceConfig{.workers = workers});
    TestPlan plan;
    for (int c = 0; c < soc->coreCount(); ++c) {
      plan.addCore(CorePlan{.core_index = c,
                            .patterns = 32 + static_cast<int>(rng() % 700)});
    }
    const PlanForecast f = service.predict(plan);
    const std::vector<std::vector<std::size_t>> reference =
        planOrderLoads(f, *soc);
    ASSERT_EQ(f.tams.size(), reference.size());
    std::size_t reference_makespan = 0;
    for (std::size_t t = 0; t < f.tams.size(); ++t) {
      const std::size_t ref_tam = makespanOf(reference[t]);
      reference_makespan = std::max(reference_makespan, ref_tam);
      EXPECT_LE(f.tams[t].predicted_makespan_tcks, ref_tam)
          << "trial " << trial << " tam " << t;
      // Both place all of the TAM's work, just differently.
      std::size_t ref_total = 0;
      for (const std::size_t load : reference[t]) ref_total += load;
      EXPECT_EQ(f.tams[t].predicted_tap_clocks, ref_total)
          << "trial " << trial << " tam " << t;
    }
    EXPECT_LE(f.predicted_makespan_tcks, reference_makespan)
        << "trial " << trial;
  }
}

TEST(Placement, StrictlyBeatsPlanOrderOnAscendingBudgets) {
  // 16 two-module cores round-robin over 4 TAMs, 2 workers (so 2 channels
  // per TAM), budgets ascending within each TAM: the adversarial case for
  // the plan-order walk. The placement must strictly shrink the predicted
  // makespan (1,304 TCKs against the reference's 1,368), balance every TAM
  // exactly (spread 0 against 512), never lose on any TAM, and change no
  // outcome.
  constexpr int kCores = 16;
  constexpr int kTams = 4;
  TestPlan plan;
  for (int c = 0; c < kCores; ++c) {
    plan.addCore(
        CorePlan{.core_index = c, .patterns = 64 * (1 + c / kTams)});
  }
  auto ref_soc = fixtures::makeTwoModuleSoc(kCores, kTams);
  const std::string reference = runCampaign(*ref_soc, plan).fingerprint();

  auto soc = fixtures::makeTwoModuleSoc(kCores, kTams);
  CampaignService service(*soc, CampaignServiceConfig{.workers = 2});
  const PlanForecast f = service.predict(plan);
  EXPECT_EQ(service.await(service.submit(plan)).fingerprint(), reference);

  const std::vector<std::vector<std::size_t>> po = planOrderLoads(f, *soc);
  ASSERT_EQ(f.tams.size(), po.size());
  std::size_t po_makespan = 0;
  for (std::size_t t = 0; t < po.size(); ++t) {
    po_makespan = std::max(po_makespan, makespanOf(po[t]));
    EXPECT_LE(f.tams[t].predicted_makespan_tcks, makespanOf(po[t]))
        << "tam " << t;
  }
  EXPECT_EQ(f.predicted_makespan_tcks, 1304u);
  EXPECT_EQ(po_makespan, 1368u);
  EXPECT_EQ(predictedSpread(forecastLoads(f)), 0u);
  EXPECT_EQ(predictedSpread(po), 512u);
}

TEST(Placement, DeterministicIndexOrderTieBreak) {
  // Four identical trees on one TAM, three channels: the greedy walk must
  // fill channels 0, 1, 2 in index order (strict less-than keeps the
  // lowest-index channel on equal load), and the whole placement must be
  // reproducible call over call.
  auto soc = std::make_unique<Soc>("tie_soc");
  for (int c = 0; c < 4; ++c) {
    (void)soc->attachCore(makeCore("t" + std::to_string(c), 7));
  }
  CampaignService service(*soc, CampaignServiceConfig{.workers = 3});
  const TestPlan plan = TestPlan{}.withPatterns(100);
  const PlanForecast f = service.predict(plan);
  ASSERT_EQ(f.tams.size(), 1u);
  ASSERT_EQ(f.tams[0].channel_loads.size(), 3u);
  // All four trees cost the same, so the fourth doubles up on channel 0.
  EXPECT_EQ(f.tams[0].channel_loads[0].cores.size(), 2u);
  EXPECT_EQ(f.tams[0].channel_loads[1].cores.size(), 1u);
  EXPECT_EQ(f.tams[0].channel_loads[2].cores.size(), 1u);
  for (std::size_t ch = 0; ch < 3; ++ch) {
    EXPECT_EQ(f.tams[0].channel_loads[ch].channel, static_cast<int>(ch));
  }
  // Byte-for-byte repeatable placement (pure function of the plan).
  for (int rep = 0; rep < 3; ++rep) {
    const PlanForecast g = service.predict(plan);
    ASSERT_EQ(g.tams[0].channel_loads.size(), 3u);
    for (std::size_t ch = 0; ch < 3; ++ch) {
      EXPECT_EQ(g.tams[0].channel_loads[ch].cores,
                f.tams[0].channel_loads[ch].cores);
      EXPECT_EQ(g.tams[0].channel_loads[ch].predicted_tcks,
                f.tams[0].channel_loads[ch].predicted_tcks);
    }
  }
}

TEST(Placement, NeverChangesCampaignOutcomes) {
  // Placement moves work between channels; it must never change what the
  // campaign *finds*. Heterogeneous budgets (so the LPT and plan-order
  // candidates differ) + a defect at several pool sizes: all fingerprints
  // equal the one-worker reference.
  auto build = [] {
    auto soc = makeMultiTamSoc(2, 3);
    soc->core(1).injectDefect(0, 3, GateType::kXnor);
    return soc;
  };
  TestPlan plan;
  {
    auto probe = build();
    for (int c = 0; c < probe->coreCount(); ++c) {
      plan.addCore(CorePlan{.core_index = c, .patterns = 100 + 60 * c});
    }
  }
  std::string reference;
  {
    auto soc = build();
    reference = runCampaign(*soc, plan).fingerprint();
  }
  EXPECT_NE(reference.find("\"verdict\": \"signature_mismatch\""),
            std::string::npos);
  for (const int workers : {2, 4}) {
    auto soc = build();
    EXPECT_EQ(runCampaign(*soc, plan, workers).fingerprint(), reference)
        << "workers " << workers;
  }
}

TEST(Placement, FieldsAreTimingGatedOutOfFingerprint) {
  auto soc = makeMultiTamSoc(2, 2);
  const SessionReport report =
      runCampaign(*soc, TestPlan{}.withPatterns(100), 4);
  const std::string json = report.toJson();
  const std::string fp = report.fingerprint();
  for (const char* key :
       {"predicted_makespan_tcks", "actual_makespan_tcks", "channel_loads",
        "predicted_tap_clocks"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
    EXPECT_EQ(fp.find(key), std::string::npos) << key;
  }
}

/// Captures the placement decision stream.
struct PlacementObserver final : SessionObserver {
  struct Placed {
    int tam;
    int channel;
    std::vector<int> cores;
    std::size_t predicted_tcks;
  };
  std::vector<Placed> placed;
  int campaign_starts = 0;
  void onCampaignStart(int, int) override { ++campaign_starts; }
  void onChannelPlaced(int tam, int channel, const std::vector<int>& cores,
                       std::size_t predicted_tcks) override {
    EXPECT_EQ(campaign_starts, 1);  // after start, before any core
    placed.push_back(Placed{tam, channel, cores, predicted_tcks});
  }
};

TEST(Placement, ObserverSeesEveryChannelOnceInOrder) {
  auto soc = makeMultiTamSoc(2, 3);
  PlacementObserver obs;
  const SessionReport report =
      runCampaign(*soc, TestPlan{}.withPatterns(100), 2, &obs);
  ASSERT_FALSE(obs.placed.empty());
  std::vector<int> seen_cores;
  for (std::size_t i = 0; i < obs.placed.size(); ++i) {
    if (i > 0) {
      const auto& a = obs.placed[i - 1];
      const auto& b = obs.placed[i];
      EXPECT_TRUE(a.tam < b.tam || (a.tam == b.tam && a.channel < b.channel));
    }
    for (const int c : obs.placed[i].cores) seen_cores.push_back(c);
  }
  std::sort(seen_cores.begin(), seen_cores.end());
  std::vector<int> all;
  for (const CoreReport& c : report.cores) all.push_back(c.core_index);
  std::sort(all.begin(), all.end());
  EXPECT_EQ(seen_cores, all);
}

TEST(JsonFinite, ClampsNonFiniteDoubles) {
  EXPECT_EQ(jsonFinite(1.5), 1.5);
  EXPECT_EQ(jsonFinite(0.0), 0.0);
  EXPECT_EQ(jsonFinite(std::numeric_limits<double>::infinity()), 0.0);
  EXPECT_EQ(jsonFinite(-std::numeric_limits<double>::infinity()), 0.0);
  EXPECT_EQ(jsonFinite(std::numeric_limits<double>::quiet_NaN()), 0.0);
}

TEST(JsonFinite, ReportJsonSurvivesNonFiniteFields) {
  // Regression for the zero-wall-time campaign: a report whose doubles went
  // inf/NaN (utilization = busy / 0, etc.) must still serialize to JSON —
  // %f would otherwise print bare `inf` / `nan` tokens into the artifact.
  SessionReport r;
  r.soc_name = "degenerate";
  r.wall_seconds = std::numeric_limits<double>::quiet_NaN();
  CoreReport core;
  core.core_index = 0;
  core.verdict = CoreVerdict::kPass;
  core.seconds = std::numeric_limits<double>::infinity();
  core.modules.push_back(ModuleVerdict{0x1, 0x1});
  r.cores.push_back(core);
  TamReport tam;
  tam.busy_seconds = std::numeric_limits<double>::infinity();
  tam.utilization = std::numeric_limits<double>::infinity();
  tam.channel_loads.push_back(ChannelLoad{0, {0}, 100, 100});
  r.tams.push_back(tam);
  const std::string json = r.toJson();
  EXPECT_EQ(json.find("inf"), std::string::npos);
  EXPECT_EQ(json.find("nan"), std::string::npos);
  // The clamped fields are still present (as finite zeros).
  EXPECT_NE(json.find("\"wall_seconds\": 0.0000"), std::string::npos);
  EXPECT_NE(json.find("\"utilization\": 0.000"), std::string::npos);
}

TEST(JsonFinite, LiveZeroWorkCampaignStaysParseable) {
  // End to end: the fastest real campaign we can run still produces a JSON
  // artifact free of non-finite tokens even if the clock granularity makes
  // wall_seconds 0.
  auto soc = std::make_unique<Soc>("tiny");
  (void)soc->attachCore(makeCore("only", 1));
  const SessionReport report = runCampaign(*soc, TestPlan{}.withPatterns(1));
  const std::string json = report.toJson();
  EXPECT_EQ(json.find("inf"), std::string::npos);
  EXPECT_EQ(json.find("nan"), std::string::npos);
  long depth = 0;
  for (const char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

}  // namespace
}  // namespace corebist
