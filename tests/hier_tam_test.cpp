// Hierarchical multi-TAM SoC campaigns: randomized topologies (1-4 TAMs,
// nesting depth <= 3, mixed core sizes) prove campaigns fingerprint-
// identical to the one-worker path under every TAM / pool-size
// combination, plus negative tests for plans and topologies the resolver
// must reject. Style follows tests/wide_fsim_test.cpp: a deterministic
// generator seeded per case, one reference run, then equivalence sweeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/session_channel.hpp"
#include "core/soc.hpp"
#include "fixtures.hpp"
#include "netlist/builder.hpp"
#include "service/artifacts.hpp"
#include "service/service.hpp"

namespace corebist {
namespace {

using fixtures::runCampaign;

/// Small self-checking module; `twist` varies structure, `width` size, so
/// cores carry genuinely different logic and different signatures.
Netlist makeToyModule(int twist, int width) {
  Netlist nl("toy" + std::to_string(twist) + "w" + std::to_string(width));
  Builder b(nl);
  const Bus x = b.input("x", width);
  const Bus q = b.state("q", width);
  b.connect(q, b.bw(GateType::kXor, x, b.shiftConst(q, 1 + twist % 3)));
  b.output("y", q);
  b.output("p", Bus{b.reduceXor(q)});
  nl.validate();
  return nl;
}

std::unique_ptr<WrappedCore> makeCore(const std::string& name, int twist,
                                      int width) {
  auto core = std::make_unique<WrappedCore>(name);
  core->addModule(makeToyModule(twist, width));
  return core;
}

/// One randomized SoC: 1-4 TAMs, 2-4 top-level cores, a guaranteed
/// depth-2 chain under top core 0, random extra nesting to depth 3,
/// random defects. Deterministic in `case_id`, so two calls build
/// byte-identical chips.
struct RandomSoc {
  std::unique_ptr<Soc> soc;
  int tam_count = 1;
  int max_depth = 0;
};

RandomSoc buildRandomSoc(int case_id) {
  std::mt19937 rng(0xBEEF + static_cast<unsigned>(case_id));
  RandomSoc r;
  r.soc = std::make_unique<Soc>("hier_soc_" + std::to_string(case_id));
  r.tam_count = 1 + case_id % 4;
  for (int t = 1; t < r.tam_count; ++t) (void)r.soc->addTam();

  int twist = 0;
  auto width = [&rng] { return 8 + static_cast<int>(rng() % 5); };
  const int n_top = 2 + static_cast<int>(rng() % 3);
  std::vector<int> tops;
  for (int c = 0; c < n_top; ++c) {
    const int tam = static_cast<int>(rng() % static_cast<unsigned>(
                                                r.tam_count));
    tops.push_back(r.soc->attachCore(
        makeCore("top" + std::to_string(c), twist++, width()), tam));
  }
  // Guaranteed nested chain of depth 2 under the first top-level core.
  const int child0 = r.soc->attachChildCore(
      makeCore("nest1", twist++, width()), tops[0]);
  (void)r.soc->attachChildCore(makeCore("nest2", twist++, width()), child0);
  r.max_depth = 2;
  // Random extra nesting elsewhere, depth <= 3.
  for (std::size_t c = 1; c < tops.size(); ++c) {
    int parent = tops[c];
    for (int d = 1; d <= 3 && rng() % 2 == 0; ++d) {
      parent = r.soc->attachChildCore(
          makeCore("n" + std::to_string(c) + "d" + std::to_string(d),
                   twist++, width()),
          parent);
      r.max_depth = std::max(r.max_depth, d);
    }
  }
  // Random defects keep all three verdicts in play.
  for (int c = 0; c < r.soc->coreCount(); ++c) {
    if (rng() % 3 == 0) {
      const GateId victim = 3 + rng() % 4;
      const GateType twisted =
          rng() % 2 == 0 ? GateType::kXnor : GateType::kNand;
      r.soc->core(c).injectDefect(0, victim, twisted);
    }
  }
  return r;
}

/// Campaign over every core in a shuffled (but case-deterministic) order,
/// with some entries starved into timeouts/retries.
TestPlan makeRandomPlan(const RandomSoc& r, int case_id) {
  std::mt19937 rng(0xF00D + static_cast<unsigned>(case_id));
  std::vector<int> order(static_cast<std::size_t>(r.soc->coreCount()));
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::shuffle(order.begin(), order.end(), rng);

  TestPlan plan = TestPlan{}.withPatterns(96 + static_cast<int>(rng() % 3) *
                                                   32);
  for (const int core : order) {
    if (rng() % 4 == 0) {
      // Starved attempt: the poll budget ends long before the run can.
      plan.addCore(CorePlan{.core_index = core,
                            .patterns = 400,
                            .warmup_idle = 16,
                            .poll_budget = 2,
                            .poll_idle = 8,
                            .max_retries = static_cast<int>(rng() % 2)});
    } else {
      plan.addCore(core);
    }
  }
  return plan;
}

TEST(HierTam, RandomizedTopologiesAreFingerprintIdenticalToSerial) {
  // The acceptance property: across randomized topologies — including
  // >= 20 with >= 2 TAMs and a nested depth-2 core — every TAM/pool-size
  // combination reproduces the one-worker fingerprint bit for bit.
  constexpr int kCases = 28;
  int multi_tam_nested_cases = 0;
  for (int case_id = 0; case_id < kCases; ++case_id) {
    RandomSoc ref = buildRandomSoc(case_id);
    const TestPlan base = makeRandomPlan(ref, case_id);
    const std::string reference = runCampaign(*ref.soc, base).fingerprint();
    if (ref.tam_count >= 2 && ref.max_depth >= 2) ++multi_tam_nested_cases;

    // Each TAM opens min(workers, its trees) channels: 2, 3 and 8 workers
    // give every TAM one to three channels, or one per tree.
    for (const int workers : {2, 3, 8}) {
      RandomSoc fresh = buildRandomSoc(case_id);  // identical initial state
      const SessionReport report = runCampaign(*fresh.soc, base, workers);
      ASSERT_EQ(report.fingerprint(), reference)
          << "case " << case_id << " workers " << workers << " tams "
          << ref.tam_count << " depth " << ref.max_depth;
    }
  }
  EXPECT_GE(multi_tam_nested_cases, 20);

  // Six two-module cores round-robin over 1/2/4 TAMs, one nested core per
  // TAM: 4 workers reproduce the one-worker fingerprint.
  const TestPlan plan256 = TestPlan{}.withPatterns(256);
  for (const int tams : {1, 2, 4}) {
    auto soc = fixtures::makeTwoModuleSoc(6, tams, /*nested=*/true);
    const std::string reference = runCampaign(*soc, plan256).fingerprint();
    EXPECT_EQ(runCampaign(*soc, plan256, 4).fingerprint(), reference)
        << "two-module SoC, tams " << tams;
  }
}

TEST(HierTam, NestedDefectIsLocalizedThroughTheChildChain) {
  Soc soc("nested");
  const int tam1 = soc.addTam("fast_tam");
  const int top = soc.attachCore(makeCore("top", 1, 10), tam1);
  const int child = soc.attachChildCore(makeCore("child", 2, 10), top);
  const int grand = soc.attachChildCore(makeCore("grand", 3, 10), child);
  soc.core(grand).injectDefect(0, 4, GateType::kNor);

  CampaignService service(soc, CampaignServiceConfig{.workers = 2});
  const SessionReport report =
      service.await(service.submit(TestPlan{}.withPatterns(200)));
  ASSERT_EQ(report.cores.size(), 3u);
  EXPECT_EQ(report.core(top)->verdict, CoreVerdict::kPass);
  EXPECT_EQ(report.core(child)->verdict, CoreVerdict::kPass);
  EXPECT_EQ(report.core(grand)->verdict, CoreVerdict::kSignatureMismatch);
  EXPECT_EQ(report.core(grand)->depth, 2);
  EXPECT_EQ(report.core(grand)->tam, tam1);
  // Reaching a nested core costs extra WIR routing scans.
  EXPECT_GT(report.core(grand)->tap_clocks, report.core(top)->tap_clocks);

  soc.core(grand).healModule(0);
  const CoreReport healed = fixtures::testCore(
      service, CorePlan{.core_index = grand, .patterns = 200});
  EXPECT_EQ(healed.verdict, CoreVerdict::kPass) << healed.summary();
}

TEST(HierTam, PerTamAccountingSlicesTheCampaign) {
  Soc soc("two_tams");
  const int t1 = soc.addTam("bulk");
  const int a = soc.attachCore(makeCore("a", 1, 9), 0);
  const int b = soc.attachCore(makeCore("b", 2, 9), t1);
  const int c = soc.attachCore(makeCore("c", 3, 9), t1);
  const int nested = soc.attachChildCore(makeCore("d", 4, 9), b);

  TestPlan plan = TestPlan{}.withPatterns(128);
  plan.addCore(c).addCore(a).addCore(nested).addCore(b);
  const SessionReport report = runCampaign(soc, plan, 2);

  ASSERT_EQ(report.tams.size(), 2u);
  EXPECT_EQ(report.tams[0].tam_index, 0);
  EXPECT_EQ(report.tams[0].name, "tam0");
  EXPECT_EQ(report.tams[1].tam_index, t1);
  EXPECT_EQ(report.tams[1].name, "bulk");
  // Core order is plan order filtered per TAM, not completion order.
  EXPECT_EQ(report.tams[0].core_order, std::vector<int>({a}));
  EXPECT_EQ(report.tams[1].core_order, std::vector<int>({c, nested, b}));
  std::size_t tam_tcks = 0;
  for (const TamReport& tr : report.tams) tam_tcks += tr.tap_clocks;
  EXPECT_EQ(tam_tcks, report.total_tap_clocks);
  const std::string json = report.toJson();
  EXPECT_NE(json.find("\"utilization\""), std::string::npos);
  const std::string fp = report.fingerprint();
  EXPECT_NE(fp.find("\"tams\""), std::string::npos);
  EXPECT_EQ(fp.find("\"utilization\""), std::string::npos);
  EXPECT_EQ(fp.find("\"channels\""), std::string::npos);
}

TEST(HierTam, PlanAssigningACoreToTheWrongTamIsRejected) {
  Soc soc("mismatch");
  const int t1 = soc.addTam();
  const int a = soc.attachCore(makeCore("a", 1, 9), 0);
  CampaignService service(soc, CampaignServiceConfig{.workers = 1});

  TestPlan wrong_tam;
  wrong_tam.addCore(CorePlan{.core_index = a, .tam = t1});
  EXPECT_THROW((void)service.submit(wrong_tam), std::invalid_argument);
  TestPlan bogus_tam;
  bogus_tam.addCore(CorePlan{.core_index = a, .tam = 99});
  EXPECT_THROW((void)service.submit(bogus_tam), std::invalid_argument);
  // The explicit assignment that matches the topology is fine.
  TestPlan right_tam;
  right_tam.addCore(CorePlan{.core_index = a, .tam = 0});
  EXPECT_EQ(service.await(service.submit(right_tam)).cores.at(0).verdict,
            CoreVerdict::kPass);
}

TEST(HierTam, OutOfRangeProtocolDefaultsAreRejected) {
  // Every sentinel CorePlan field inherits, so only a plan-wide default can
  // resolve out of range. Each plan keeps the default warmup, which covers
  // the whole run: were a plan admitted, its campaign would still finish.
  Soc soc("protocol");
  (void)soc.attachCore(makeCore("a", 1, 9));
  CampaignService service(soc, CampaignServiceConfig{.workers = 1});
  const auto rejected = [&](const char* field, const TestPlan& plan) {
    for (const bool run : {false, true}) {
      try {
        if (run) {
          (void)service.await(service.submit(plan));
        } else {
          (void)service.predict(plan);
        }
        ADD_FAILURE() << field << " accepted by "
                      << (run ? "submit()" : "predict()");
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
            << e.what();
      }
    }
  };
  TestPlan no_polls = TestPlan{}.withPatterns(64);
  no_polls.poll_budget = 0;
  rejected("poll_budget", no_polls);
  TestPlan negative_idle = TestPlan{}.withPatterns(64);
  negative_idle.poll_idle = -5;
  rejected("poll_idle", negative_idle);
  TestPlan negative_retries = TestPlan{}.withPatterns(64);
  negative_retries.max_retries = -1;
  rejected("max_retries", negative_retries);
  // The smallest allowances are valid: one poll, no idle, no retries.
  TestPlan tight = TestPlan{}.withPatterns(64);
  tight.poll_budget = 1;
  tight.poll_idle = 0;
  tight.max_retries = 0;
  EXPECT_TRUE(service.await(service.submit(tight)).pass());
}

TEST(HierTam, BrokenHierarchiesAreRejectedAtBuildTime) {
  Soc soc("broken");
  EXPECT_THROW((void)soc.attachCore(makeCore("a", 1, 9), 7),
               std::invalid_argument);  // no such TAM
  const int a = soc.attachCore(makeCore("a", 1, 9));
  EXPECT_THROW((void)soc.attachChildCore(makeCore("b", 2, 9), -1),
               std::invalid_argument);
  EXPECT_THROW((void)soc.attachChildCore(makeCore("b", 2, 9), 99),
               std::invalid_argument);
  // Nesting beyond kMaxHierarchyDepth is refused.
  int parent = a;
  for (int d = 1; d <= Soc::kMaxHierarchyDepth; ++d) {
    parent = soc.attachChildCore(makeCore("d" + std::to_string(d), d, 8),
                                 parent);
  }
  EXPECT_THROW((void)soc.attachChildCore(makeCore("deep", 9, 8), parent),
               std::invalid_argument);
  // The chip TAP's 4-bit IR holds exactly 4 TAM blocks.
  Soc wide("wide");
  for (int t = 1; t < 4; ++t) (void)wide.addTam();
  EXPECT_THROW((void)wide.addTam(), std::invalid_argument);
  // A child listed twice in one plan is still a duplicate.
  Soc dup("dup");
  const int top = dup.attachCore(makeCore("t", 1, 9));
  const int kid = dup.attachChildCore(makeCore("k", 2, 9), top);
  TestPlan twice;
  twice.addCore(kid).addCore(top).addCore(kid);
  EXPECT_THROW((void)runCampaign(dup, twice), std::invalid_argument);
}

TEST(HierTam, ChannelRefusesCoresOfOtherTams) {
  Soc soc("channel_guard");
  const int t1 = soc.addTam();
  (void)soc.attachCore(makeCore("a", 1, 9), 0);
  const int b = soc.attachCore(makeCore("b", 2, 9), t1);
  ArtifactStore artifacts;
  SessionChannel channel(soc, 0, artifacts);
  ObserverList observers;
  EXPECT_THROW(
      (void)channel.testCore(CorePlan{.core_index = b, .patterns = 64},
                             observers),
      std::logic_error);
}

TEST(HierTam, RerunOnTheSameHierarchicalSocIsIdentical) {
  // Campaigns leave nested cores re-testable: one worker then four on one
  // chip yields the same fingerprint (state perturbations from testing a
  // parent — shared clock domain ticks — are erased by each attempt's
  // kReset/kLoadCount/kStart preamble).
  RandomSoc r = buildRandomSoc(3);
  const TestPlan plan = makeRandomPlan(r, 3);
  const std::string first = runCampaign(*r.soc, plan).fingerprint();
  const std::string second = runCampaign(*r.soc, plan, 4).fingerprint();
  EXPECT_EQ(first, second);
}

TEST(HierTam, ChipTapIsCreditedAcrossTams) {
  RandomSoc r = buildRandomSoc(5);
  const std::size_t before = r.soc->tap().tckCount();
  const SessionReport report =
      runCampaign(*r.soc, TestPlan{}.withPatterns(96), 2);
  EXPECT_EQ(r.soc->tap().tckCount() - before, report.total_tap_clocks);
}

}  // namespace
}  // namespace corebist
