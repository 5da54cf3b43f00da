// IEEE 1149.1 TAP controller (paper Fig. 1: the SoC's external test access).
//
// Full 16-state FSM plus a pluggable data-register port per IR instruction;
// BYPASS and IDCODE are built in. The TAM registers its own DR ports to
// route CaptureDR/ShiftDR/UpdateDR into P1500 WSC sequences.
#ifndef COREBIST_JTAG_TAP_HPP_
#define COREBIST_JTAG_TAP_HPP_

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

namespace corebist {

enum class TapState : std::uint8_t {
  kTestLogicReset,
  kRunTestIdle,
  kSelectDrScan,
  kCaptureDr,
  kShiftDr,
  kExit1Dr,
  kPauseDr,
  kExit2Dr,
  kUpdateDr,
  kSelectIrScan,
  kCaptureIr,
  kShiftIr,
  kExit1Ir,
  kPauseIr,
  kExit2Ir,
  kUpdateIr,
};

[[nodiscard]] TapState tapNextState(TapState s, bool tms);

class TapController {
 public:
  /// A data-register backend bound to one IR instruction value.
  struct DrPort {
    std::function<void()> capture;
    std::function<bool(bool tdi)> shift;  // returns tdo
    std::function<void()> update;
    /// Called once per TCK spent in Run-Test/Idle (system clocks for BIST).
    std::function<void()> run_idle;
  };

  explicit TapController(int ir_width = 4, std::uint32_t idcode = 0xC0DEB157u);

  /// Bind a DR port to an IR value. Throws std::invalid_argument when the
  /// value does not fit the IR, collides with IDCODE or the all-ones
  /// BYPASS code, or is already bound — multiple TAMs allocate disjoint IR
  /// blocks on one chip TAP, and a silent overwrite would route one TAM's
  /// scans into another's wrappers.
  void registerInstruction(std::uint32_t ir_value, DrPort port);

  /// Number of IR codes still available for registerInstruction.
  [[nodiscard]] int freeIrSlots() const noexcept;

  /// One TCK with the given TMS/TDI; returns TDO.
  bool clock(bool tms, bool tdi);

  [[nodiscard]] TapState state() const noexcept { return state_; }
  [[nodiscard]] int irWidth() const noexcept { return ir_width_; }
  [[nodiscard]] std::uint32_t idcode() const noexcept { return idcode_; }
  [[nodiscard]] std::size_t tckCount() const noexcept { return tcks_; }

  /// Account TCKs spent on this controller's behalf by another channel.
  /// Sharded SoC campaigns clock per-shard TAP replicas, then credit the
  /// chip TAP with the aggregate so tckCount() stays the chip-level total
  /// regardless of how a campaign was scheduled.
  void creditTcks(std::size_t n) noexcept { tcks_ += n; }

  static constexpr std::uint32_t kBypass = 0xFFFFFFFFu;  // all-ones IR
  static constexpr std::uint32_t kIdcode = 0x1u;

 private:
  [[nodiscard]] DrPort* currentPort();

  int ir_width_;
  std::uint32_t idcode_;
  TapState state_ = TapState::kTestLogicReset;
  std::uint32_t ir_ = kBypass;
  std::vector<bool> ir_shift_;
  std::map<std::uint32_t, DrPort> ports_;
  bool bypass_bit_ = false;
  std::uint32_t idcode_shift_ = 0;
  std::size_t tcks_ = 0;
};

}  // namespace corebist

#endif  // COREBIST_JTAG_TAP_HPP_
