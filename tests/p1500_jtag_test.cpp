// P1500 wrapper, 1149.1 TAP, TAM and the complete bit-banged test session.
#include <gtest/gtest.h>

#include "core/soc.hpp"
#include "core/wrapped_core.hpp"
#include "fixtures.hpp"
#include "jtag/driver.hpp"
#include "jtag/tap.hpp"
#include "ldpc/gatelevel.hpp"
#include "netlist/builder.hpp"
#include "p1500/wrapper.hpp"
#include "service/service.hpp"
#include "tam/tam.hpp"

namespace corebist {
namespace {

using fixtures::runCampaign;
using fixtures::testCore;

TEST(TapFsm, ResetFromAnywhereInFiveTmsOnes) {
  for (int s = 0; s < 16; ++s) {
    TapState st = static_cast<TapState>(s);
    for (int i = 0; i < 5; ++i) st = tapNextState(st, true);
    EXPECT_EQ(st, TapState::kTestLogicReset) << "from state " << s;
  }
}

TEST(TapFsm, CanonicalDrPath) {
  TapState s = TapState::kRunTestIdle;
  s = tapNextState(s, true);   // Select-DR
  EXPECT_EQ(s, TapState::kSelectDrScan);
  s = tapNextState(s, false);  // Capture-DR
  EXPECT_EQ(s, TapState::kCaptureDr);
  s = tapNextState(s, false);  // Shift-DR
  EXPECT_EQ(s, TapState::kShiftDr);
  s = tapNextState(s, false);  // stays
  EXPECT_EQ(s, TapState::kShiftDr);
  s = tapNextState(s, true);  // Exit1
  s = tapNextState(s, true);  // Update
  EXPECT_EQ(s, TapState::kUpdateDr);
  s = tapNextState(s, false);
  EXPECT_EQ(s, TapState::kRunTestIdle);
}

TEST(Tap, IdcodeReadAfterReset) {
  TapController tap(4, 0xDEADBEEF);
  TapDriver driver(tap);
  driver.reset();
  // After reset the IDCODE instruction is selected; read 32 bits.
  std::uint64_t id = 0;
  const auto out = driver.shiftDr(0, 32);
  id = out;
  EXPECT_EQ(id, 0xDEADBEEFu);
}

TEST(Tap, BypassIsOneBit) {
  TapController tap(4);
  TapDriver driver(tap);
  driver.reset();
  driver.shiftIr(0xF, 4);  // BYPASS
  // A walking one through bypass comes back delayed by exactly one bit.
  const std::uint64_t out = driver.shiftDr(0b1011001, 7);
  EXPECT_EQ(out & 0x7Fu, 0b0110010u);
}

TEST(Tap, IrShiftsOutCapturePattern) {
  TapController tap(4);
  TapDriver driver(tap);
  driver.reset();
  const std::uint64_t captured = driver.shiftIr(0x2, 4);
  EXPECT_EQ(captured & 0xFu, 0b0001u);  // standard 01 capture
}

TEST(P1500, WirSelectsRegisters) {
  P1500Wrapper::Hooks hooks;
  P1500Wrapper w(10, hooks);
  EXPECT_EQ(w.instruction(), WirInstruction::kWsBypass);
  EXPECT_EQ(w.selectedLength(false), 1);
  EXPECT_EQ(w.selectedLength(true), P1500Wrapper::kWirBits);

  // Shift WS_CDR (3) into the WIR and update.
  const unsigned instr = 3;
  for (int i = 0; i < P1500Wrapper::kWirBits; ++i) {
    w.cycle(WscSignals{true, false, true, false}, ((instr >> i) & 1u) != 0);
  }
  w.cycle(WscSignals{true, false, false, true}, false);
  EXPECT_EQ(w.instruction(), WirInstruction::kWsCdr);
  EXPECT_EQ(w.selectedLength(false), P1500Wrapper::kWcdrBits);
}

TEST(P1500, WcdrDeliversCommand) {
  BistCommand got_cmd = BistCommand::kNop;
  std::uint16_t got_data = 0;
  P1500Wrapper::Hooks hooks;
  hooks.command = [&](BistCommand c, std::uint16_t d) {
    got_cmd = c;
    got_data = d;
  };
  P1500Wrapper w(8, std::move(hooks));
  // WIR <- WS_CDR.
  for (int i = 0; i < 3; ++i) {
    w.cycle(WscSignals{true, false, true, false}, ((3u >> i) & 1u) != 0);
  }
  w.cycle(WscSignals{true, false, false, true}, false);
  // WCDR <- {data=0x0ABC, cmd=kLoadCount(2)} and update.
  const std::uint32_t word = (0x0ABCu << 3) | 2u;
  for (int i = 0; i < P1500Wrapper::kWcdrBits; ++i) {
    w.cycle(WscSignals{false, false, true, false}, ((word >> i) & 1u) != 0);
  }
  w.cycle(WscSignals{false, false, false, true}, false);
  EXPECT_EQ(got_cmd, BistCommand::kLoadCount);
  EXPECT_EQ(got_data, 0x0ABCu);
}

TEST(P1500, WdrCapturesAndShiftsStatus) {
  P1500Wrapper::Hooks hooks;
  hooks.read_data = [] { return 0xBEEFu; };
  P1500Wrapper w(8, std::move(hooks));
  for (int i = 0; i < 3; ++i) {
    w.cycle(WscSignals{true, false, true, false}, ((4u >> i) & 1u) != 0);
  }
  w.cycle(WscSignals{true, false, false, true}, false);
  w.cycle(WscSignals{false, true, false, false}, false);  // capture
  std::uint32_t out = 0;
  for (int i = 0; i < P1500Wrapper::kWdrBits; ++i) {
    if (w.cycle(WscSignals{false, false, true, false}, false)) out |= 1u << i;
  }
  EXPECT_EQ(out, 0xBEEFu);
}

TEST(P1500, ResetReturnsToBypass) {
  P1500Wrapper::Hooks hooks;
  P1500Wrapper w(4, hooks);
  const unsigned instr = 2;  // WS_INTEST
  for (int i = 0; i < 3; ++i) {
    w.cycle(WscSignals{true, false, true, false}, ((instr >> i) & 1u) != 0);
  }
  w.cycle(WscSignals{true, false, false, true}, false);
  EXPECT_EQ(w.instruction(), WirInstruction::kWsIntest);
  w.reset();
  EXPECT_EQ(w.instruction(), WirInstruction::kWsBypass);
}

TEST(P1500, ChildInstructionsWithoutChildrenActAsBypass) {
  // All eight 3-bit codes are defined now that 5..7 address the child
  // chain; on a leaf wrapper the child instructions degrade to the 1-bit
  // bypass, so a scan can never reach logic that is not there.
  P1500Wrapper::Hooks hooks;
  P1500Wrapper w(4, hooks);
  for (int i = 0; i < 3; ++i) {
    w.cycle(WscSignals{true, false, true, false}, true);  // 0b111 = 7
  }
  w.cycle(WscSignals{true, false, false, true}, false);
  EXPECT_EQ(w.instruction(), WirInstruction::kWsChildDr);
  EXPECT_EQ(w.selectedChild(), nullptr);
  EXPECT_EQ(w.selectedLength(false), 1);
  // A walking bit through the degraded path behaves like WBY.
  EXPECT_FALSE(w.cycle(WscSignals{false, false, true, false}, true));
  EXPECT_TRUE(w.cycle(WscSignals{false, false, true, false}, false));
}

TEST(P1500, ChildChainRoutesScansToNestedWrappers) {
  // Parent -> child -> grandchild: WS_CHILD_SEL latches the slot,
  // WS_CHILD_WIR scans the child's WIR, WS_CHILD_DR reaches whatever the
  // child's WIR selects — recursively.
  BistCommand got_cmd = BistCommand::kNop;
  std::uint16_t got_data = 0;
  P1500Wrapper::Hooks leaf_hooks;
  leaf_hooks.command = [&](BistCommand c, std::uint16_t d) {
    got_cmd = c;
    got_data = d;
  };
  P1500Wrapper parent(4, {});
  P1500Wrapper child(4, {});
  P1500Wrapper grandchild(4, std::move(leaf_hooks));
  EXPECT_EQ(parent.attachChild(&child), 0);
  EXPECT_EQ(child.attachChild(&grandchild), 0);

  auto scanWir = [](P1500Wrapper& w, unsigned instr) {
    for (int i = 0; i < P1500Wrapper::kWirBits; ++i) {
      w.cycle(WscSignals{true, false, true, false}, ((instr >> i) & 1u) != 0);
    }
    w.cycle(WscSignals{true, false, false, true}, false);
  };
  auto scanDr = [](P1500Wrapper& w, std::uint64_t word, int bits) {
    for (int i = 0; i < bits; ++i) {
      w.cycle(WscSignals{false, false, true, false}, ((word >> i) & 1u) != 0);
    }
    w.cycle(WscSignals{false, false, false, true}, false);
  };

  // parent.childSel <- 0, then route parent's DR to the child's WIR.
  scanWir(parent, 5);  // WS_CHILD_SEL
  scanDr(parent, 0, P1500Wrapper::kChildSelBits);
  EXPECT_EQ(parent.selectedChild(), &child);
  scanWir(parent, 6);  // WS_CHILD_WIR: parent's DR = child's WIR
  scanDr(parent, 5, P1500Wrapper::kWirBits);  // child.WIR <- WS_CHILD_SEL
  EXPECT_EQ(child.instruction(), WirInstruction::kWsChildSel);
  scanWir(parent, 7);  // WS_CHILD_DR: parent's DR = child's selected DR
  scanDr(parent, 0, P1500Wrapper::kChildSelBits);  // child.childSel <- 0
  EXPECT_EQ(child.selectedChild(), &grandchild);
  // Route the grandchild's WCDR: child forwards WIR scans, then DR scans.
  scanWir(parent, 6);
  scanDr(parent, 6, P1500Wrapper::kWirBits);  // child.WIR <- WS_CHILD_WIR
  scanWir(parent, 7);
  scanDr(parent, 3, P1500Wrapper::kWirBits);  // grandchild.WIR <- WS_CDR
  EXPECT_EQ(grandchild.instruction(), WirInstruction::kWsCdr);
  scanWir(parent, 6);
  scanDr(parent, 7, P1500Wrapper::kWirBits);  // child.WIR <- WS_CHILD_DR
  scanWir(parent, 7);
  EXPECT_EQ(parent.selectedLength(false), P1500Wrapper::kWcdrBits);
  const std::uint32_t word = (0x0123u << 3) | 2u;  // kLoadCount(2)
  scanDr(parent, word, P1500Wrapper::kWcdrBits);
  EXPECT_EQ(got_cmd, BistCommand::kLoadCount);
  EXPECT_EQ(got_data, 0x0123u);
}

TEST(P1500, ChildChainRejectsCyclesAndDuplicates) {
  P1500Wrapper a(4, {});
  P1500Wrapper b(4, {});
  P1500Wrapper c(4, {});
  a.attachChild(&b);
  b.attachChild(&c);
  EXPECT_THROW(a.attachChild(&a), std::invalid_argument);  // self
  EXPECT_THROW(a.attachChild(&b), std::invalid_argument);  // duplicate
  EXPECT_THROW(a.attachChild(&c), std::invalid_argument);  // already nested
  EXPECT_THROW(c.attachChild(&a), std::invalid_argument);  // cycle
  EXPECT_THROW(b.attachChild(nullptr), std::invalid_argument);
}

TEST(Tam, NoSystemTicksLeakDuringCoreSelection) {
  // The TAP passes through Run-Test/Idle on the way into the TAM_SELECT
  // DR scan, while the previous selection is still latched. That clock
  // must not reach any core: a scheduler shard selecting its core would
  // otherwise tick a core another shard owns.
  TapController tap(4);
  Tam tam(tap);
  P1500Wrapper::Hooks hooks;
  P1500Wrapper w0(4, hooks);
  P1500Wrapper w1(4, hooks);
  int ticks0 = 0;
  int ticks1 = 0;
  tam.attach(&w0, [&] { ++ticks0; });
  tam.attach(&w1, [&] { ++ticks1; });

  TapDriver driver(tap);
  driver.reset();
  EXPECT_EQ(tam.selectedCore(), -1);  // nothing selected until an update
  driver.shiftIr(Tam::kIrSelect, 4);
  driver.shiftDr(1, Tam::kSelectBits);
  EXPECT_EQ(tam.selectedCore(), 1);
  EXPECT_EQ(ticks0, 0);  // selection itself clocks no core
  EXPECT_EQ(ticks1, 0);
  driver.shiftIr(Tam::kIrWdrScan, 4);
  driver.runIdle(5);
  EXPECT_EQ(ticks0, 0);
  EXPECT_EQ(ticks1, 5);  // idle under a wrapper instruction, selected only
}

/// A tiny self-checking core for fast session tests: XOR tree module.
Netlist makeToyModule() {
  Netlist nl("toy");
  Builder b(nl);
  const Bus x = b.input("x", 12);
  const Bus q = b.state("q", 12);
  b.connect(q, b.bw(GateType::kXor, x, b.shiftConst(q, 1)));
  b.output("y", q);
  b.output("p", Bus{b.reduceXor(q)});
  nl.validate();
  return nl;
}

TEST(SocSession, FullBistSessionPassesOnHealthyCore) {
  Soc soc;
  auto core = std::make_unique<WrappedCore>("toy");
  core->addModule(makeToyModule());
  const int idx = soc.attachCore(std::move(core));
  CampaignService service(soc, CampaignServiceConfig{.workers = 1});
  const CoreReport report =
      testCore(service, CorePlan{.core_index = idx, .patterns = 300});
  EXPECT_TRUE(report.end_test_seen);
  EXPECT_EQ(report.verdict, CoreVerdict::kPass) << report.summary();
  EXPECT_TRUE(report.pass());
  EXPECT_EQ(report.attempts, 1);
  ASSERT_EQ(report.modules.size(), 1u);
  EXPECT_EQ(report.modules[0].signature, report.modules[0].golden);
  EXPECT_GT(report.tap_clocks, 300u);
}

TEST(SocSession, DefectiveCoreFailsAndHealedCorePasses) {
  Soc soc;
  auto core = std::make_unique<WrappedCore>("toy");
  core->addModule(makeToyModule());
  const int idx = soc.attachCore(std::move(core));
  soc.core(idx).injectDefect(0, 3, GateType::kXnor);
  CampaignService service(soc, CampaignServiceConfig{.workers = 1});
  const CoreReport bad =
      testCore(service, CorePlan{.core_index = idx, .patterns = 300});
  EXPECT_EQ(bad.verdict, CoreVerdict::kSignatureMismatch) << bad.summary();
  EXPECT_TRUE(bad.end_test_seen);  // a mismatch is NOT a timeout
  soc.core(idx).healModule(0);
  const CoreReport good =
      testCore(service, CorePlan{.core_index = idx, .patterns = 300});
  EXPECT_EQ(good.verdict, CoreVerdict::kPass) << good.summary();
}

TEST(SocSession, MultiCoreSelectionIsIndependent) {
  Soc soc;
  auto c0 = std::make_unique<WrappedCore>("core0");
  c0->addModule(makeToyModule());
  auto c1 = std::make_unique<WrappedCore>("core1");
  c1->addModule(makeToyModule());
  const int i0 = soc.attachCore(std::move(c0));
  const int i1 = soc.attachCore(std::move(c1));
  soc.core(i1).injectDefect(0, 5, GateType::kNand);
  const SessionReport report = runCampaign(soc, TestPlan{}.withPatterns(200));
  ASSERT_EQ(report.cores.size(), 2u);
  EXPECT_TRUE(report.core(i0)->pass());
  EXPECT_FALSE(report.core(i1)->pass());
  EXPECT_FALSE(report.pass());
  EXPECT_EQ(report.passCount(), 1);
  EXPECT_EQ(report.total_tap_clocks,
            report.cores[0].tap_clocks + report.cores[1].tap_clocks);
}

TEST(SocSession, LdpcControlUnitEndToEnd) {
  // End-to-end through the real CONTROL_UNIT netlist (42 flops, Table 1).
  Soc soc;
  auto core = std::make_unique<WrappedCore>("ldpc_cu");
  core->addModule(ldpc::buildControlUnit());
  const int idx = soc.attachCore(std::move(core));
  CampaignService service(soc, CampaignServiceConfig{.workers = 1});
  const CoreReport report =
      testCore(service, {.core_index = idx, .patterns = 512});
  EXPECT_TRUE(report.pass()) << report.summary();
}

}  // namespace
}  // namespace corebist
