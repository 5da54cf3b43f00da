#include "synth/area.hpp"

namespace corebist {

AreaReport reportArea(const Netlist& nl, const TechLib& lib, bool scan_flops) {
  AreaReport r;
  for (const Gate& g : nl.gates()) {
    r.comb_um2 += lib.cell(g.type).area_um2;
    r.by_type[static_cast<std::size_t>(g.type)]++;
  }
  r.gate_count = nl.numGates();
  r.flop_count = nl.dffs().size();
  const FlopSpec& ff = scan_flops ? lib.scanDff() : lib.dff();
  r.seq_um2 = static_cast<double>(r.flop_count) * ff.area_um2;
  r.total_um2 = (r.comb_um2 + r.seq_um2) * lib.wiringOverhead();
  return r;
}

}  // namespace corebist
