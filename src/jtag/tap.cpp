#include "jtag/tap.hpp"

#include <stdexcept>
#include <string>

namespace corebist {

TapState tapNextState(TapState s, bool tms) {
  switch (s) {
    case TapState::kTestLogicReset:
      return tms ? TapState::kTestLogicReset : TapState::kRunTestIdle;
    case TapState::kRunTestIdle:
      return tms ? TapState::kSelectDrScan : TapState::kRunTestIdle;
    case TapState::kSelectDrScan:
      return tms ? TapState::kSelectIrScan : TapState::kCaptureDr;
    case TapState::kCaptureDr:
      return tms ? TapState::kExit1Dr : TapState::kShiftDr;
    case TapState::kShiftDr:
      return tms ? TapState::kExit1Dr : TapState::kShiftDr;
    case TapState::kExit1Dr:
      return tms ? TapState::kUpdateDr : TapState::kPauseDr;
    case TapState::kPauseDr:
      return tms ? TapState::kExit2Dr : TapState::kPauseDr;
    case TapState::kExit2Dr:
      return tms ? TapState::kUpdateDr : TapState::kShiftDr;
    case TapState::kUpdateDr:
      return tms ? TapState::kSelectDrScan : TapState::kRunTestIdle;
    case TapState::kSelectIrScan:
      return tms ? TapState::kTestLogicReset : TapState::kCaptureIr;
    case TapState::kCaptureIr:
      return tms ? TapState::kExit1Ir : TapState::kShiftIr;
    case TapState::kShiftIr:
      return tms ? TapState::kExit1Ir : TapState::kShiftIr;
    case TapState::kExit1Ir:
      return tms ? TapState::kUpdateIr : TapState::kPauseIr;
    case TapState::kPauseIr:
      return tms ? TapState::kExit2Ir : TapState::kPauseIr;
    case TapState::kExit2Ir:
      return tms ? TapState::kUpdateIr : TapState::kShiftIr;
    case TapState::kUpdateIr:
      return tms ? TapState::kSelectDrScan : TapState::kRunTestIdle;
  }
  return TapState::kTestLogicReset;
}

TapController::TapController(int ir_width, std::uint32_t idcode)
    : ir_width_(ir_width),
      idcode_(idcode),
      ir_shift_(static_cast<std::size_t>(ir_width), false) {}

void TapController::registerInstruction(std::uint32_t ir_value, DrPort port) {
  const std::uint32_t all_ones =
      ir_width_ >= 32 ? 0xFFFFFFFFu : ((1u << ir_width_) - 1u);
  if (ir_value > all_ones) {
    throw std::invalid_argument("TapController: IR value " +
                                std::to_string(ir_value) + " does not fit " +
                                std::to_string(ir_width_) + " bits");
  }
  if (ir_value == kIdcode || ir_value == all_ones) {
    throw std::invalid_argument(
        "TapController: IR value " + std::to_string(ir_value) +
        " is reserved (IDCODE / BYPASS)");
  }
  if (ports_.count(ir_value) != 0) {
    throw std::invalid_argument("TapController: IR value " +
                                std::to_string(ir_value) +
                                " already bound to a data register");
  }
  ports_[ir_value] = std::move(port);
}

int TapController::freeIrSlots() const noexcept {
  // All codes minus IDCODE, the all-ones BYPASS, and the bound ports.
  const std::uint64_t total = ir_width_ >= 32 ? (std::uint64_t{1} << 32)
                                              : (std::uint64_t{1} << ir_width_);
  return static_cast<int>(total - 2 - ports_.size());
}

TapController::DrPort* TapController::currentPort() {
  const auto it = ports_.find(ir_);
  return it == ports_.end() ? nullptr : &it->second;
}

bool TapController::clock(bool tms, bool tdi) {
  ++tcks_;
  bool tdo = false;
  const std::uint32_t ir_mask =
      ir_width_ >= 32 ? 0xFFFFFFFFu : ((1u << ir_width_) - 1u);

  // Actions are taken in the CURRENT state; then TMS advances the FSM.
  switch (state_) {
    case TapState::kTestLogicReset:
      ir_ = kIdcode;  // 1149.1: IDCODE (or BYPASS) selected at reset
      break;
    case TapState::kRunTestIdle: {
      DrPort* port = currentPort();
      if (port != nullptr && port->run_idle) port->run_idle();
      break;
    }
    case TapState::kCaptureIr:
      // Standard: capture 0b...01 into the IR shifter.
      for (std::size_t i = 0; i < ir_shift_.size(); ++i) ir_shift_[i] = i == 0;
      break;
    case TapState::kShiftIr:
      tdo = ir_shift_.front();
      for (std::size_t i = 0; i + 1 < ir_shift_.size(); ++i) {
        ir_shift_[i] = ir_shift_[i + 1];
      }
      ir_shift_.back() = tdi;
      break;
    case TapState::kUpdateIr: {
      std::uint32_t v = 0;
      for (std::size_t i = 0; i < ir_shift_.size(); ++i) {
        if (ir_shift_[i]) v |= 1u << i;
      }
      ir_ = v & ir_mask;
      break;
    }
    case TapState::kCaptureDr: {
      if (ir_ == kIdcode) {
        idcode_shift_ = idcode_;
      } else if (DrPort* port = currentPort(); port != nullptr &&
                                               port->capture) {
        port->capture();
      }
      break;
    }
    case TapState::kShiftDr: {
      if (ir_ == kIdcode) {
        tdo = (idcode_shift_ & 1u) != 0;
        idcode_shift_ = (idcode_shift_ >> 1) | (tdi ? 0x80000000u : 0u);
      } else if (DrPort* port = currentPort(); port != nullptr &&
                                               port->shift) {
        tdo = port->shift(tdi);
      } else {
        tdo = bypass_bit_;  // BYPASS and unknown instructions: 1-bit reg
        bypass_bit_ = tdi;
      }
      break;
    }
    case TapState::kUpdateDr: {
      if (DrPort* port = currentPort(); port != nullptr && port->update) {
        port->update();
      }
      break;
    }
    default:
      break;
  }

  state_ = tapNextState(state_, tms);
  if (state_ == TapState::kTestLogicReset) ir_ = kIdcode;
  return tdo;
}

}  // namespace corebist
