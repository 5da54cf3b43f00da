// Standard-cell technology model.
//
// The paper synthesizes with "an industrial 0.13 um technological library"
// (Synopsys Design Analyzer) and reports absolute areas in um^2 and clock
// frequencies in MHz. We model a generic 0.13 um standard-cell library:
// per-primitive area, intrinsic pin-to-pin delay, and a linear fanout-load
// delay term; flip-flops carry clk->Q, setup, area, and a scan variant
// (muxed-D) with its own overheads. Absolute numbers are calibrated-model
// values, not silicon, as declared in DESIGN.md.
#ifndef COREBIST_SYNTH_TECHLIB_HPP_
#define COREBIST_SYNTH_TECHLIB_HPP_

#include <array>

#include "netlist/gate.hpp"

namespace corebist {

struct CellSpec {
  double area_um2 = 0.0;
  double delay_ns = 0.0;          // intrinsic pin-to-pin delay
  double load_ns_per_fanout = 0.0;  // added per extra fanout beyond 1
};

struct FlopSpec {
  double area_um2 = 0.0;
  double clk_to_q_ns = 0.0;
  double setup_ns = 0.0;
};

class TechLib {
 public:
  /// Generic 0.13 um library (default calibration).
  [[nodiscard]] static TechLib generic130nm();

  [[nodiscard]] const CellSpec& cell(GateType t) const {
    return cells_[static_cast<std::size_t>(t)];
  }
  [[nodiscard]] CellSpec& cell(GateType t) {
    return cells_[static_cast<std::size_t>(t)];
  }
  [[nodiscard]] const FlopSpec& dff() const noexcept { return dff_; }
  [[nodiscard]] FlopSpec& dff() noexcept { return dff_; }
  /// Scan flop = muxed-D flavor: extra area and extra D-path delay.
  [[nodiscard]] const FlopSpec& scanDff() const noexcept { return sdff_; }
  [[nodiscard]] FlopSpec& scanDff() noexcept { return sdff_; }

  /// Clock-tree and wiring overhead multiplier applied to total cell area.
  [[nodiscard]] double wiringOverhead() const noexcept { return wiring_; }

 private:
  std::array<CellSpec, kNumGateTypes> cells_{};
  FlopSpec dff_{};
  FlopSpec sdff_{};
  double wiring_ = 1.12;
};

}  // namespace corebist

#endif  // COREBIST_SYNTH_TECHLIB_HPP_
