// ATE-side P1500 access protocol over one TAP channel.
//
// The bit-banging sequences every session needs — select a core through the
// TAM, load a wrapper WIR instruction, deliver a WCDR command, read the WDR
// back — so every session channel drives the exact same protocol. One
// P1500Ate owns one TapDriver over one TapController and speaks to one
// TAM's IR block; it is not thread-safe, but channels never share an ATE.
//
// Hierarchical cores: selectPath() programs the WS_CHILD_SEL chain below
// the TAM-selected top-level core, after which loadWir / sendCommand /
// readWdr address the nested core at that path. Routing an ancestor's WIR
// is itself a hierarchical scan, so the cost of reaching a core grows with
// its depth — exactly the access-time trade hierarchical P1500 makes in
// hardware — and every scan is fixed-length, so the protocol stays
// deterministic.
#ifndef COREBIST_TAM_ATE_HPP_
#define COREBIST_TAM_ATE_HPP_

#include <cstdint>
#include <vector>

#include "jtag/driver.hpp"
#include "jtag/tap.hpp"
#include "p1500/wrapper.hpp"
#include "tam/tam.hpp"

namespace corebist {

class P1500Ate {
 public:
  /// Result-select value that exposes the control-unit status word through
  /// the WDR (the Output Selector's non-signature view).
  static constexpr std::uint16_t kStatusView = 3;
  /// end_test flag in the status word (bit 1).
  static constexpr std::uint16_t kStatusEndTest = 0x2;

  /// Speak to the classic single-TAM IR block.
  explicit P1500Ate(TapController& tap)
      : P1500Ate(tap, Tam::kIrSelect) {}
  /// Speak to the TAM whose IR block starts at `ir_base` (see
  /// Tam::irSelect) — one ATE per TAM channel.
  P1500Ate(TapController& tap, std::uint32_t ir_base)
      : tap_(tap), driver_(tap), ir_base_(ir_base) {}

  /// Test-Logic-Reset then settle in Run-Test/Idle. Forgets the routed
  /// child path (wrapper WIRs are reprogrammed on the next scan anyway).
  void reset() {
    driver_.reset();
    path_.clear();
  }

  /// Route the TAM to top-level slot `core_slot` (TAM_SELECT scan) and
  /// drop any routed child path.
  void selectCore(int core_slot);

  /// Program the WS_CHILD_SEL chain below the selected top-level core so
  /// subsequent loadWir / sendCommand / readWdr address the nested core
  /// reached through `child_path` (one child slot per hierarchy level;
  /// empty = the top-level core itself).
  void selectPath(const std::vector<int>& child_path);

  /// Load a WIR instruction into the routed core's wrapper.
  void loadWir(WirInstruction instr);

  /// Deliver a BIST command through the routed core's WCDR.
  void sendCommand(BistCommand cmd, std::uint16_t data);

  /// Read the routed core's WDR (status word or selected MISR).
  [[nodiscard]] std::uint16_t readWdr();

  /// Dwell in Run-Test/Idle: one system clock per TCK for the selected
  /// top-level core's clock domain (the at-speed BIST run; a parent
  /// forwards the clock to its children).
  void runIdle(std::size_t cycles) { driver_.runIdle(cycles); }

  [[nodiscard]] std::size_t tckCount() const noexcept {
    return tap_.tckCount();
  }
  /// Child path currently routed below the selected top-level core.
  [[nodiscard]] const std::vector<int>& path() const noexcept {
    return path_;
  }

  // ---- ATE cost model (static queries; no TAP required) -----------------
  //
  // Every scan in this protocol is fixed-length, so the TCK cost of any
  // command sequence is a pure function of the protocol shape — the same
  // invariant the campaign fingerprint equality rests on. These queries
  // let the service predict a core session's TCK load *before* running
  // anything (makespan-aware placement, the what-if API) and are kept next
  // to the protocol implementation so the model can never drift from the
  // bit-banging code silently: tests/placement_test.cpp asserts the
  // prediction equals the measured tckCount() delta exactly.

  /// Predicted cost of one full core session (the canonical protocol in
  /// SessionChannel::testCore), assuming the attempt succeeds.
  struct SessionCost {
    std::size_t tap_clocks = 0;   // total TCKs, at-speed dwell included
    std::size_t bist_cycles = 0;  // commanded Run-Test/Idle (at-speed) TCKs
    int polls = 1;                // status polls the model expects
  };

  /// One IR scan from Run-Test/Idle: 4 state clocks in, `ir_width` shift
  /// clocks, 2 state clocks out.
  [[nodiscard]] static constexpr std::size_t shiftIrTcks(int ir_width) noexcept {
    return static_cast<std::size_t>(ir_width) + 6;
  }
  /// One DR scan from Run-Test/Idle: 3 state clocks in, `dr_bits` shift
  /// clocks, 2 state clocks out.
  [[nodiscard]] static constexpr std::size_t shiftDrTcks(int dr_bits) noexcept {
    return static_cast<std::size_t>(dr_bits) + 5;
  }
  /// Cost of scanning a WIR at nesting depth `depth` (scanWirAt): routing
  /// an ancestor's WIR is itself a hierarchical scan, so the cost doubles
  /// per level — (2^(depth+1) - 1) base scans.
  [[nodiscard]] static std::size_t wirScanTcks(int ir_width, int depth) noexcept;
  /// Cost of selectPath() for a core at nesting depth `depth`.
  [[nodiscard]] static std::size_t selectPathTcks(int ir_width,
                                                  int depth) noexcept;
  /// Cost of sendCommand() / readWdr() addressed at nesting depth `depth`.
  [[nodiscard]] static std::size_t sendCommandTcks(int ir_width,
                                                   int depth) noexcept;
  [[nodiscard]] static std::size_t readWdrTcks(int ir_width, int depth) noexcept;

  /// Predict the full single-attempt session for a core at `depth` with
  /// `module_count` MISR uploads: reset, TAM select, path routing, the
  /// three-command BIST preamble, `warmup_idle` at-speed TCKs, status
  /// polling (`poll_budget`/`poll_idle` bound the modeled poll loop; a
  /// dwell that covers the whole run needs exactly one poll), and the
  /// per-module signature uploads. Exact when end_test is reached within
  /// the modeled polls; a lower bound otherwise (retries are not modeled).
  [[nodiscard]] static SessionCost predictSessionCost(
      int ir_width, int depth, int module_count, int patterns, int warmup_idle,
      int poll_budget, int poll_idle) noexcept;

 private:
  /// Scan `instr` into the WIR of the ancestor at `depth` along the routed
  /// path (depth 0 = the top-level core). Leaves every shallower ancestor
  /// holding WS_CHILD_DR, so a follow-up data scan reaches that depth.
  void scanWirAt(int depth, WirInstruction instr);
  void wdrScanIr() { driver_.shiftIr(ir_base_ + 2, tap_.irWidth()); }

  TapController& tap_;
  TapDriver driver_;
  std::uint32_t ir_base_;
  std::vector<int> path_;
};

}  // namespace corebist

#endif  // COREBIST_TAM_ATE_HPP_
