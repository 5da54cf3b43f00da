// IEEE P1500 wrapper (paper §3.3, Fig. 5).
//
// The wrapper interfaces the BIST-equipped core with the chip-level test
// infrastructure: a serial port (WSI/WSO), the WSC control signals
// (SelectWIR, CaptureWR, ShiftWR, UpdateWR, WRCK, WRSTN) and the register
// set — mandatory WIR and WBY, the boundary register WBR, and the two
// user-defined registers the paper introduces:
//   * WCDR (Wrapper Control Data Register): commands to the core — reset,
//     test start, pattern count, status-read selection;
//   * WDR (Wrapper Data Register): output register through which the TAP
//     reads test status and MISR signatures.
//
// Hierarchy: a wrapper may own child wrappers (wrapped cores containing
// wrapped cores). Three WIR instructions expose them without widening the
// WIR: WS_CHILD_SEL scans a child-select register, WS_CHILD_WIR forwards
// the scan to the selected child's WIR, and WS_CHILD_DR forwards it to
// whichever register the child's WIR selects — including, recursively, the
// child's own child chain. The parent acts as a plain wire while
// forwarding, so a scan through N ancestors still shifts exactly the
// target register's length.
#ifndef COREBIST_P1500_WRAPPER_HPP_
#define COREBIST_P1500_WRAPPER_HPP_

#include <cstdint>
#include <functional>
#include <vector>

#include "bist/control_unit.hpp"

namespace corebist {

/// WIR instruction set (3 bits).
enum class WirInstruction : std::uint8_t {
  kWsBypass = 0,    // WBY between WSI and WSO
  kWsExtest = 1,    // WBR, outward facing
  kWsIntest = 2,    // WBR, inward facing
  kWsCdr = 3,       // WCDR: command delivery to the BIST engine
  kWsDr = 4,        // WDR: status / signature upload
  kWsChildSel = 5,  // child-select register (hierarchical cores)
  kWsChildWir = 6,  // forward the scan to the selected child's WIR
  kWsChildDr = 7,   // forward the scan to the child's selected register
};

/// One WRCK cycle's worth of WSC control signals.
struct WscSignals {
  bool select_wir = false;
  bool capture = false;
  bool shift = false;
  bool update = false;
};

class P1500Wrapper {
 public:
  struct Hooks {
    /// WCDR update: deliver a decoded command to the BIST control unit.
    std::function<void(BistCommand, std::uint16_t)> command;
    /// WDR capture: fetch the word to upload (status or selected MISR).
    std::function<std::uint32_t()> read_data;
    /// WBR capture: functional port snapshot (optional; zeros if absent).
    std::function<std::uint64_t()> capture_inputs;
  };

  /// `wbr_bits` is the boundary-register length (in-cells + out-cells).
  P1500Wrapper(int wbr_bits, Hooks hooks);

  /// Attach a child wrapper to this wrapper's child chain; returns the
  /// child's slot (the value WS_CHILD_SEL latches to reach it). Throws for
  /// a null/self/duplicate child, a child that already contains this
  /// wrapper (a cycle), or a full chain.
  int attachChild(P1500Wrapper* child);

  /// Child currently latched by WS_CHILD_SEL; nullptr until the first
  /// valid select. Child instructions behave as a 1-bit bypass while no
  /// child is selected, so a scan can never reach a core the ATE has not
  /// explicitly routed to.
  [[nodiscard]] P1500Wrapper* selectedChild() const;
  /// True when `w` is this wrapper or appears anywhere in its child tree.
  [[nodiscard]] bool inSubtree(const P1500Wrapper* w) const;

  /// WRSTN: async reset — WIR returns to WS_BYPASS, registers clear, the
  /// child selection is dropped and the reset propagates down the tree.
  void reset();

  /// One WRCK rising edge. Returns the WSO bit presented during this cycle
  /// (valid while shifting). `wsi` is the serial input bit.
  bool cycle(const WscSignals& wsc, bool wsi);

  [[nodiscard]] WirInstruction instruction() const noexcept { return instr_; }
  /// Length of the register currently between WSI and WSO.
  [[nodiscard]] int selectedLength(bool select_wir) const;

  static constexpr int kWirBits = 3;
  static constexpr int kWcdrBits = 19;  // 3-bit command + 16-bit data
  static constexpr int kWdrBits = 16;
  static constexpr int kChildSelBits = 4;  // up to 16 children per wrapper

 private:
  Hooks hooks_;
  WirInstruction instr_ = WirInstruction::kWsBypass;
  std::vector<bool> wir_shift_;
  bool wby_ = false;
  std::vector<bool> wcdr_shift_;
  std::vector<bool> wdr_shift_;
  std::vector<bool> wbr_shift_;
  std::vector<P1500Wrapper*> children_;
  int child_sel_ = -1;
  std::vector<bool> child_sel_shift_;
};

}  // namespace corebist

#endif  // COREBIST_P1500_WRAPPER_HPP_
