// Test Access Mechanism: the custom glue between the chip TAP controller
// and the P1500 wrappers (paper Fig. 1 / §2).
//
// Three chip-level instructions are allocated on the TAP per TAM:
//   TAM_SELECT   - DR is an 8-bit core-select register;
//   TAM_WIR_SCAN - DR is the selected wrapper's WIR (SelectWIR = 1);
//   TAM_WDR_SCAN - DR is whichever wrapper register the WIR selected
//                  (WBY / WBR / WCDR / WDR, or a child chain for
//                  hierarchical cores).
// CaptureDR / ShiftDR / UpdateDR map 1:1 onto the WSC capture/shift/update
// pulses, and Run-Test/Idle clocks are forwarded to the cores as system
// clocks so the BIST engines run while the ATE idles the TAP.
//
// A chip may carry several TAMs, each serving its own subset of wrapped
// cores: every TAM claims a contiguous block of kIrStride IR codes
// starting at its `ir_base` (the default base keeps the classic
// single-TAM layout), and the TAP rejects overlapping blocks.
#ifndef COREBIST_TAM_TAM_HPP_
#define COREBIST_TAM_TAM_HPP_

#include <functional>
#include <string>
#include <vector>

#include "jtag/tap.hpp"
#include "p1500/wrapper.hpp"

namespace corebist {

class Tam {
 public:
  static constexpr std::uint32_t kIrSelect = 0x2;
  static constexpr std::uint32_t kIrWirScan = 0x3;
  static constexpr std::uint32_t kIrWdrScan = 0x4;
  /// IR codes one TAM occupies (select / WIR scan / WDR scan).
  static constexpr std::uint32_t kIrStride = 3;
  /// Width of the TAM_SELECT core-select data register.
  static constexpr int kSelectBits = 8;

  /// Classic single-TAM layout: IR block at kIrSelect.
  explicit Tam(TapController& tap) : Tam(tap, kIrSelect) {}
  /// Additional TAMs claim their own IR block of kIrStride codes.
  Tam(TapController& tap, std::uint32_t ir_base, std::string name = "tam");

  [[nodiscard]] std::uint32_t irSelect() const noexcept { return ir_base_; }
  [[nodiscard]] std::uint32_t irWirScan() const noexcept {
    return ir_base_ + 1;
  }
  [[nodiscard]] std::uint32_t irWdrScan() const noexcept {
    return ir_base_ + 2;
  }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Attach a wrapper; returns its core index. `system_tick` (optional) is
  /// pulsed once per Run-Test/Idle TCK while this core is selected.
  int attach(P1500Wrapper* wrapper, std::function<void()> system_tick = {});

  /// Currently selected core; -1 until the first TAM_SELECT update. No
  /// wrapper is cycled and no system clock is forwarded while nothing is
  /// selected, so replica channels (core/session_channel.hpp) can never
  /// touch a core they have not explicitly selected.
  [[nodiscard]] int selectedCore() const noexcept { return selected_; }
  [[nodiscard]] int coreCount() const noexcept {
    return static_cast<int>(cores_.size());
  }

 private:
  struct CoreSlot {
    P1500Wrapper* wrapper = nullptr;
    std::function<void()> system_tick;
  };
  [[nodiscard]] P1500Wrapper* selectedWrapper();
  void registerPorts(TapController& tap);

  std::vector<CoreSlot> cores_;
  int selected_ = -1;
  std::vector<bool> select_shift_;
  std::uint32_t ir_base_;
  std::string name_;
};

}  // namespace corebist

#endif  // COREBIST_TAM_TAM_HPP_
