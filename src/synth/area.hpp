// Cell-area accounting (paper Table 2).
#ifndef COREBIST_SYNTH_AREA_HPP_
#define COREBIST_SYNTH_AREA_HPP_

#include <array>

#include "netlist/netlist.hpp"
#include "synth/techlib.hpp"

namespace corebist {

struct AreaReport {
  double comb_um2 = 0.0;
  double seq_um2 = 0.0;
  double total_um2 = 0.0;  // includes wiring overhead multiplier
  std::size_t gate_count = 0;
  std::size_t flop_count = 0;
  std::array<std::size_t, kNumGateTypes> by_type{};
};

/// Compute cell area of a netlist. If `scan_flops` is true every DFF is
/// costed as its muxed-D scan variant.
[[nodiscard]] AreaReport reportArea(const Netlist& nl, const TechLib& lib,
                                    bool scan_flops = false);

}  // namespace corebist

#endif  // COREBIST_SYNTH_AREA_HPP_
