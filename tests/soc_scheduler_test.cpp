// Plan-driven SoC test campaigns through the CampaignService: determinism
// across pool sizes, timeout/retry policy, observer streaming, JSON export
// and plan validation.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/soc.hpp"
#include "fixtures.hpp"
#include "service/service.hpp"

namespace corebist {
namespace {

using fixtures::makeMixedPlan;
using fixtures::makeToyModule;
using fixtures::runCampaign;
using fixtures::testCore;

std::unique_ptr<Soc> makeSoc() { return fixtures::makeToySoc("shard_soc"); }

TEST(SocScheduler, ShardedReportsAreByteIdenticalToSerial) {
  // The acceptance property: for ANY pool size, with and without injected
  // defects and forced timeouts, the deterministic fingerprint of the
  // campaign equals the one-worker reference byte for byte.
  auto ref_soc = makeSoc();
  const std::string reference =
      runCampaign(*ref_soc, makeMixedPlan()).fingerprint();
  EXPECT_NE(reference.find("\"verdict\": \"timeout\""), std::string::npos);
  EXPECT_NE(reference.find("\"verdict\": \"signature_mismatch\""),
            std::string::npos);
  EXPECT_NE(reference.find("\"verdict\": \"pass\""), std::string::npos);

  for (const int workers : {2, 3, 6, 8, 16}) {
    auto soc = makeSoc();  // fresh SoC: identical initial state
    const SessionReport report = runCampaign(*soc, makeMixedPlan(), workers);
    EXPECT_EQ(report.fingerprint(), reference) << "workers=" << workers;
  }

  // Six two-module cores, one of them defective, rerun on one SoC.
  auto two_module = fixtures::makeTwoModuleSoc(6);
  const TestPlan plan256 = TestPlan{}.withPatterns(256);
  const std::string two_module_reference =
      runCampaign(*two_module, plan256).fingerprint();
  for (const int workers : {2, 4, 8}) {
    EXPECT_EQ(runCampaign(*two_module, plan256, workers).fingerprint(),
              two_module_reference)
        << "two-module SoC, workers=" << workers;
  }
}

TEST(SocScheduler, RerunOnTheSameSocIsIdenticalToo) {
  // Campaigns leave every core re-testable: running the same plan twice on
  // one SoC (one worker, then four) yields the same fingerprint.
  auto soc = makeSoc();
  const std::string first = runCampaign(*soc, makeMixedPlan()).fingerprint();
  const std::string second =
      runCampaign(*soc, makeMixedPlan(), 4).fingerprint();
  EXPECT_EQ(first, second);
}

TEST(SocScheduler, TimeoutIsDistinguishedFromMismatchAndRetried) {
  auto soc = makeSoc();
  CampaignService service(*soc, CampaignServiceConfig{.workers = 1});
  const SessionReport report = service.await(service.submit(makeMixedPlan()));

  const CoreReport* mismatch = report.core(1);
  ASSERT_NE(mismatch, nullptr);
  EXPECT_EQ(mismatch->verdict, CoreVerdict::kSignatureMismatch);
  EXPECT_TRUE(mismatch->end_test_seen);
  EXPECT_EQ(mismatch->timeouts, 0);
  ASSERT_EQ(mismatch->modules.size(), 1u);

  const CoreReport* timeout = report.core(2);
  ASSERT_NE(timeout, nullptr);
  EXPECT_EQ(timeout->verdict, CoreVerdict::kTimeout);
  EXPECT_FALSE(timeout->end_test_seen);
  EXPECT_TRUE(timeout->modules.empty());  // signatures were never uploaded
  EXPECT_EQ(timeout->attempts, 1);
  EXPECT_EQ(timeout->polls, 3);  // the full poll budget was spent

  const CoreReport* retried = report.core(5);
  ASSERT_NE(retried, nullptr);
  EXPECT_EQ(retried->verdict, CoreVerdict::kTimeout);
  EXPECT_EQ(retried->attempts, 3);  // 1 + max_retries
  EXPECT_EQ(retried->timeouts, 3);
  EXPECT_EQ(retried->polls, 6);  // poll budget per attempt

  // A core that timed out with a starved plan passes with an adequate one.
  const CoreReport recovered =
      testCore(service, CorePlan{.core_index = 2, .patterns = 500});
  EXPECT_EQ(recovered.verdict, CoreVerdict::kPass) << recovered.summary();
}

class CountingObserver final : public SessionObserver {
 public:
  int campaign_start = 0;
  int campaign_finish = 0;
  int core_start = 0;
  int core_timeout = 0;
  int core_finish = 0;
  void onCampaignStart(int, int) override { ++campaign_start; }
  void onCoreStart(int, int) override { ++core_start; }
  void onCoreTimeout(int, int, bool) override { ++core_timeout; }
  void onCoreFinish(const CoreReport&) override { ++core_finish; }
  void onCampaignFinish(const SessionReport&) override { ++campaign_finish; }
};

TEST(SocScheduler, ObserverSeesEveryEventExactlyOnce) {
  for (const int workers : {1, 4}) {
    auto soc = makeSoc();
    CountingObserver observer;
    const SessionReport report =
        runCampaign(*soc, makeMixedPlan(), workers, &observer);
    EXPECT_EQ(observer.campaign_start, 1);
    EXPECT_EQ(observer.campaign_finish, 1);
    EXPECT_EQ(observer.core_finish, 6);
    // attempts: 4 single-attempt cores + 1 (timeout, no retry) + 3 retries.
    EXPECT_EQ(observer.core_start, 8);
    EXPECT_EQ(observer.core_timeout, 4);
    EXPECT_EQ(report.cores.size(), 6u);
  }
}

TEST(SocScheduler, JsonExportCarriesTheCampaignStructure) {
  auto soc = makeSoc();
  const SessionReport report = runCampaign(*soc, makeMixedPlan());
  const std::string json = report.toJson();
  EXPECT_NE(json.find("\"soc\": \"shard_soc\""), std::string::npos);
  EXPECT_NE(json.find("\"wall_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"total_tap_clocks\""), std::string::npos);
  EXPECT_NE(json.find("\"signature\": \"0x"), std::string::npos);
  EXPECT_NE(json.find("\"verdict\": \"timeout\""), std::string::npos);
  // The fingerprint is the JSON minus wall-clock fields.
  const std::string fp = report.fingerprint();
  EXPECT_EQ(fp.find("\"wall_seconds\""), std::string::npos);
  EXPECT_EQ(fp.find("\"seconds\""), std::string::npos);
  EXPECT_EQ(fp.find("\"threads\""), std::string::npos);
}

TEST(SocScheduler, JsonEscapesQuotesAndControlCharsInNames) {
  // Core/TAM/SoC names flow into the JSON export verbatim; a name with `"`
  // or `\` used to produce invalid JSON. Every string field goes through
  // jsonEscaped() now.
  SessionReport report;
  report.soc_name = "soc \"A\"\\path";
  CoreReport core;
  core.core_index = 0;
  core.core_name = "dsp\n\"core\"\ttab\x01";
  report.cores.push_back(core);
  TamReport tam;
  tam.tam_index = 0;
  tam.name = "tam\\0 \"fast\"";
  report.tams.push_back(tam);

  const std::string json = report.toJson();
  EXPECT_NE(json.find("\"soc \\\"A\\\"\\\\path\""), std::string::npos);
  EXPECT_NE(json.find("dsp\\n\\\"core\\\"\\ttab\\u0001"), std::string::npos);
  EXPECT_NE(json.find("tam\\\\0 \\\"fast\\\""), std::string::npos);
  // No raw control character survives into the output: the core name's
  // newline/tab/0x01 are all escaped in place.
  EXPECT_EQ(json.find('\x01'), std::string::npos);
  const std::size_t dsp = json.find("dsp");
  ASSERT_NE(dsp, std::string::npos);
  EXPECT_EQ(json.substr(dsp, 30).find('\n'), std::string::npos);
  EXPECT_EQ(json.substr(dsp, 30).find('\t'), std::string::npos);
  // Round-trip smoke: balanced braces/brackets (a cheap well-formedness
  // proxy that the unescaped output failed).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));

  EXPECT_EQ(jsonEscaped("plain_name-42"), "plain_name-42");
  EXPECT_EQ(jsonEscaped("a\"b"), "a\\\"b");
  EXPECT_EQ(jsonEscaped("a\\b"), "a\\\\b");
  EXPECT_EQ(jsonEscaped(std::string_view("\r\x1f", 2)), "\\r\\u001F");
}

TEST(SocScheduler, InvalidPlansAreRejectedUpFront) {
  auto soc = makeSoc();
  CampaignService service(*soc, CampaignServiceConfig{.workers = 1});
  TestPlan bad_core;
  bad_core.addCore(99);
  EXPECT_THROW((void)service.submit(bad_core), std::invalid_argument);

  // A pattern budget beyond the 12-bit counter would silently truncate in
  // the WCDR; the plan resolver rejects it instead.
  TestPlan bad_budget = TestPlan{}.withPatterns(5000);
  EXPECT_THROW((void)service.submit(bad_budget), std::invalid_argument);

  // A core listed twice could put one wrapper on two shards concurrently.
  TestPlan duplicate;
  duplicate.addCore(3).addCore(3);
  EXPECT_THROW((void)service.submit(duplicate), std::invalid_argument);
}

TEST(SocScheduler, PlanResolutionRejectsStructurallyBrokenCoreModules) {
  // Admission-time lint (analyze/lint.hpp): a module with an injected
  // combinational loop must be rejected when its core is referenced by the
  // plan — with the rule id in the message — instead of exploding inside a
  // campaign levelization later.
  auto soc = std::make_unique<Soc>("lint_soc");
  auto good = std::make_unique<WrappedCore>("good");
  good->addModule(makeToyModule(0));
  soc->attachCore(std::move(good));

  Netlist broken = makeToyModule(1);
  GateId victim = 0;
  while (broken.gates()[victim].nin < 1) ++victim;
  broken.rebindGateInput(victim, 0, broken.gates()[victim].out);
  auto bad = std::make_unique<WrappedCore>("bad");
  bad->addModule(broken);
  soc->attachCore(std::move(bad));

  try {
    (void)runCampaign(*soc, TestPlan{}.withPatterns(64));
    FAIL() << "expected the broken core to be rejected at plan resolve";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("comb-loop"), std::string::npos) << what;
    EXPECT_NE(what.find("core 1"), std::string::npos) << what;
  }

  // A plan that references only the healthy core still runs.
  TestPlan ok_plan = TestPlan{}.withPatterns(64);
  ok_plan.addCore(0);
  const SessionReport report = runCampaign(*soc, ok_plan);
  EXPECT_EQ(report.cores.size(), 1u);
}

TEST(SocScheduler, ChipTapIsCreditedWithCampaignTcks) {
  auto soc = makeSoc();
  const std::size_t before = soc->tap().tckCount();
  const SessionReport report =
      runCampaign(*soc, TestPlan{}.withPatterns(200), 2);
  EXPECT_EQ(soc->tap().tckCount() - before, report.total_tap_clocks);
}

}  // namespace
}  // namespace corebist
