// High-level TAP driver: the software ATE.
//
// Produces the TMS/TDI bit streams for IR/DR scans and Run-Test/Idle dwell,
// collecting TDO. Every session channel (core/session_channel.hpp, via the
// tam/ate.hpp protocol) and the integration tests drive the stack
// exclusively through this bit-banging interface, so the full 1149.1 ->
// TAM -> P1500 -> BIST path is exercised.
#ifndef COREBIST_JTAG_DRIVER_HPP_
#define COREBIST_JTAG_DRIVER_HPP_

#include <cstdint>

#include "jtag/tap.hpp"

namespace corebist {

class TapDriver {
 public:
  explicit TapDriver(TapController& tap) : tap_(tap) {}

  /// Five TMS=1 clocks: guaranteed Test-Logic-Reset from any state.
  void reset();

  /// Move to Run-Test/Idle and stay for `cycles` clocks.
  void runIdle(std::size_t cycles);

  /// Shift `bits` (LSB-first) through the instruction register.
  std::uint64_t shiftIr(std::uint64_t bits, int count);

  /// Shift `bits` (LSB-first) through the selected data register; returns
  /// the bits that came out of TDO (LSB-first).
  std::uint64_t shiftDr(std::uint64_t bits, int count);

 private:
  void clockTms(bool tms) { tap_.clock(tms, false); }
  void settleToIdle();
  void toShiftDr();
  void toShiftIr();

  TapController& tap_;
};

}  // namespace corebist

#endif  // COREBIST_JTAG_DRIVER_HPP_
