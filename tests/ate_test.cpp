// Direct unit tests for the P1500Ate protocol helper (src/tam/ate.*):
// golden-signature polling, the starved-run/retry path, TCK accounting and
// hierarchical path routing — previously exercised only indirectly through
// the scheduler suite.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/soc.hpp"
#include "fixtures.hpp"
#include "tam/ate.hpp"

namespace corebist {
namespace {

using fixtures::makeToyModule;

std::unique_ptr<WrappedCore> makeCore(const std::string& name, int twist) {
  auto core = std::make_unique<WrappedCore>(name);
  core->addModule(makeToyModule(twist, /*width=*/10));
  return core;
}

/// The canonical per-attempt preamble every session runs.
void programRun(P1500Ate& ate, int slot, const std::vector<int>& path,
                int patterns) {
  ate.reset();
  ate.selectCore(slot);
  ate.selectPath(path);
  ate.sendCommand(BistCommand::kReset, 0);
  ate.sendCommand(BistCommand::kLoadCount,
                  static_cast<std::uint16_t>(patterns));
  ate.sendCommand(BistCommand::kStart, 0);
}

TEST(P1500AteTest, GoldenSignaturePollingEndToEnd) {
  Soc soc("ate_soc");
  const int idx = soc.attachCore(makeCore("toy", 1));
  P1500Ate ate(soc.tap());

  const int patterns = 200;
  programRun(ate, soc.topology(idx).top_slot, {}, patterns);
  ate.runIdle(static_cast<std::size_t>(patterns) + 4);

  ate.sendCommand(BistCommand::kSelectResult, P1500Ate::kStatusView);
  const std::uint16_t status = ate.readWdr();
  EXPECT_NE(status & P1500Ate::kStatusEndTest, 0) << "status=" << status;

  ate.sendCommand(BistCommand::kSelectResult, 0);
  const std::uint16_t signature = ate.readWdr();
  EXPECT_EQ(signature, soc.core(idx).goldenSignature(0, patterns));
}

TEST(P1500AteTest, StarvedRunShowsNoEndTestUntilRetried) {
  // The protocol-level shape of the scheduler's timeout/retry machinery: a
  // run starved of at-speed cycles never raises end_test within the poll
  // budget; a full re-run with an adequate dwell passes.
  Soc soc("ate_soc");
  const int idx = soc.attachCore(makeCore("toy", 2));
  P1500Ate ate(soc.tap());

  const int patterns = 300;
  programRun(ate, 0, {}, patterns);
  ate.runIdle(16);  // far short of `patterns` system clocks
  ate.sendCommand(BistCommand::kSelectResult, P1500Ate::kStatusView);
  bool end_test = false;
  for (int poll = 0; poll < 3 && !end_test; ++poll) {
    end_test = (ate.readWdr() & P1500Ate::kStatusEndTest) != 0;
    if (!end_test) ate.runIdle(8);
  }
  EXPECT_FALSE(end_test);

  // Retry: the preamble restarts from BIST kReset, so the earlier partial
  // run leaves no residue in the verdict.
  programRun(ate, 0, {}, patterns);
  ate.runIdle(static_cast<std::size_t>(patterns) + 4);
  ate.sendCommand(BistCommand::kSelectResult, P1500Ate::kStatusView);
  EXPECT_NE(ate.readWdr() & P1500Ate::kStatusEndTest, 0);
  ate.sendCommand(BistCommand::kSelectResult, 0);
  EXPECT_EQ(ate.readWdr(), soc.core(idx).goldenSignature(0, patterns));
}

TEST(P1500AteTest, TckAccountingIsExactAndDeterministic) {
  // Every scan is fixed-length, so identical command sequences on
  // identically-built chips cost identical TCKs — the invariant the
  // scheduler's fingerprint equality rests on.
  auto run_session = [](int twist) {
    Soc soc("tck_soc");
    const int idx = soc.attachCore(makeCore("toy", twist));
    P1500Ate ate(soc.tap());
    std::vector<std::size_t> deltas;
    std::size_t last = ate.tckCount();
    auto mark = [&] {
      deltas.push_back(ate.tckCount() - last);
      last = ate.tckCount();
    };
    programRun(ate, soc.topology(idx).top_slot, {}, 100);
    mark();
    ate.runIdle(104);
    mark();
    ate.sendCommand(BistCommand::kSelectResult, P1500Ate::kStatusView);
    (void)ate.readWdr();
    mark();
    return deltas;
  };
  const std::vector<std::size_t> first = run_session(1);
  const std::vector<std::size_t> second = run_session(1);
  EXPECT_EQ(first, second);
  // Same protocol, different core logic: the access cost is identical.
  EXPECT_EQ(first, run_session(2));
  for (const std::size_t d : first) EXPECT_GT(d, 0u);
  EXPECT_EQ(first[1], 104u);  // runIdle costs exactly its dwell
}

TEST(P1500AteTest, HierarchicalPathReachesTheNestedCore) {
  Soc soc("hier_ate");
  const int top = soc.attachCore(makeCore("top", 1));
  const int child = soc.attachChildCore(makeCore("child", 2), top);
  const int grand = soc.attachChildCore(makeCore("grand", 3), child);
  P1500Ate ate(soc.tap());

  const int patterns = 150;
  const Soc::CoreTopology& topo = soc.topology(grand);
  ASSERT_EQ(topo.child_path.size(), 2u);
  programRun(ate, topo.top_slot, topo.child_path, patterns);
  ate.runIdle(static_cast<std::size_t>(patterns) + 4);
  ate.sendCommand(BistCommand::kSelectResult, P1500Ate::kStatusView);
  EXPECT_NE(ate.readWdr() & P1500Ate::kStatusEndTest, 0);
  ate.sendCommand(BistCommand::kSelectResult, 0);
  EXPECT_EQ(ate.readWdr(), soc.core(grand).goldenSignature(0, patterns));
  EXPECT_EQ(ate.path(), topo.child_path);
  // The commands never reached the ancestors' control units: their BIST
  // runs were not started, so their status words show no end_test.
  ate.selectPath(soc.topology(child).child_path);
  ate.sendCommand(BistCommand::kSelectResult, P1500Ate::kStatusView);
  EXPECT_EQ(ate.readWdr() & P1500Ate::kStatusEndTest, 0);
  ate.selectPath({});
  ate.sendCommand(BistCommand::kSelectResult, P1500Ate::kStatusView);
  EXPECT_EQ(ate.readWdr() & P1500Ate::kStatusEndTest, 0);
}

TEST(P1500AteTest, DeeperCoresCostMoreTcksPerCommand) {
  Soc soc("depth_cost");
  const int top = soc.attachCore(makeCore("top", 1));
  const int child = soc.attachChildCore(makeCore("child", 2), top);
  const int grand = soc.attachChildCore(makeCore("grand", 3), child);
  P1500Ate ate(soc.tap());

  auto command_cost = [&](int core) {
    const Soc::CoreTopology& topo = soc.topology(core);
    ate.reset();
    ate.selectCore(topo.top_slot);
    ate.selectPath(topo.child_path);
    const std::size_t before = ate.tckCount();
    ate.sendCommand(BistCommand::kNop, 0);
    return ate.tckCount() - before;
  };
  const std::size_t c0 = command_cost(top);
  const std::size_t c1 = command_cost(child);
  const std::size_t c2 = command_cost(grand);
  EXPECT_LT(c0, c1);  // each level adds WIR routing scans
  EXPECT_LT(c1, c2);
}

TEST(P1500AteTest, SecondTamBlockDrivesItsOwnCores) {
  // An ATE bound to a non-default IR block speaks only to that TAM.
  Soc soc("two_tams");
  const int t1 = soc.addTam("aux");
  const int a = soc.attachCore(makeCore("a", 1), 0);
  const int b = soc.attachCore(makeCore("b", 2), t1);
  (void)a;
  P1500Ate aux(soc.tap(), soc.tam(t1).irSelect());

  const int patterns = 120;
  const Soc::CoreTopology& topo = soc.topology(b);
  EXPECT_EQ(topo.top_slot, 0);  // first core on ITS tam
  programRun(aux, topo.top_slot, {}, patterns);
  aux.runIdle(static_cast<std::size_t>(patterns) + 4);
  aux.sendCommand(BistCommand::kSelectResult, 0);
  EXPECT_EQ(aux.readWdr(), soc.core(b).goldenSignature(0, patterns));
}

}  // namespace
}  // namespace corebist
