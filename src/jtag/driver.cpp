#include "jtag/driver.hpp"

namespace corebist {

void TapDriver::reset() {
  for (int i = 0; i < 5; ++i) clockTms(true);
  clockTms(false);  // settle in Run-Test/Idle
}

void TapDriver::settleToIdle() {
  // A few TMS=0 clocks reach Run-Test/Idle from every update/reset exit;
  // if the FSM is parked in a shift/pause loop, escape via full reset.
  for (int i = 0; i < 4 && tap_.state() != TapState::kRunTestIdle; ++i) {
    clockTms(false);
  }
  if (tap_.state() != TapState::kRunTestIdle) reset();
}

void TapDriver::runIdle(std::size_t cycles) {
  settleToIdle();
  for (std::size_t i = 0; i < cycles; ++i) clockTms(false);
}

void TapDriver::toShiftDr() {
  settleToIdle();
  clockTms(true);   // Select-DR
  clockTms(false);  // Capture-DR
  clockTms(false);  // Shift-DR
}

void TapDriver::toShiftIr() {
  settleToIdle();
  clockTms(true);   // Select-DR
  clockTms(true);   // Select-IR
  clockTms(false);  // Capture-IR
  clockTms(false);  // Shift-IR
}

std::uint64_t TapDriver::shiftIr(std::uint64_t bits, int count) {
  toShiftIr();
  std::uint64_t out = 0;
  for (int i = 0; i < count; ++i) {
    const bool last = i + 1 == count;
    const bool tdo = tap_.clock(last, ((bits >> i) & 1u) != 0);
    if (tdo) out |= std::uint64_t{1} << i;
  }
  clockTms(true);   // Update-IR
  clockTms(false);  // Run-Test/Idle
  return out;
}

std::uint64_t TapDriver::shiftDr(std::uint64_t bits, int count) {
  toShiftDr();
  std::uint64_t out = 0;
  for (int i = 0; i < count; ++i) {
    const bool last = i + 1 == count;
    const bool tdo = tap_.clock(last, ((bits >> i) & 1u) != 0);
    if (tdo) out |= std::uint64_t{1} << i;
  }
  clockTms(true);   // Update-DR
  clockTms(false);  // Run-Test/Idle
  return out;
}

}  // namespace corebist
