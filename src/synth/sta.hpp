// Static timing analysis (paper Table 4).
//
// Single-corner, topological longest-path analysis over the levelized
// netlist. Endpoints are primary outputs and flip-flop D pins (D pins add
// setup time); start points are primary inputs (t=0) and flip-flop Q pins
// (t = clk->Q). The reported maximum frequency is 1 / worst-slack period,
// which is what the paper's "frequency [MHz]" row measures before and after
// inserting each DfT variant.
#ifndef COREBIST_SYNTH_STA_HPP_
#define COREBIST_SYNTH_STA_HPP_

#include <vector>

#include "netlist/netlist.hpp"
#include "synth/techlib.hpp"

namespace corebist {

struct TimingReport {
  double critical_path_ns = 0.0;  // register-to-register (or PI/PO) period
  double fmax_mhz = 0.0;
  NetId critical_endpoint = kNullNet;
  bool endpoint_is_flop = false;
  int logic_depth = 0;  // gates on the critical path
};

/// Analyze `nl`. If `scan_flops` is true, flip-flop D endpoints use the
/// scan-cell setup (the muxed-D scan path), which is how full-scan insertion
/// degrades fmax even when the mux is folded into the cell.
[[nodiscard]] TimingReport analyzeTiming(const Netlist& nl,
                                         const TechLib& lib,
                                         bool scan_flops = false);

}  // namespace corebist

#endif  // COREBIST_SYNTH_STA_HPP_
