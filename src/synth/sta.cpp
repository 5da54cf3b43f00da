#include "synth/sta.hpp"

#include <algorithm>

#include "netlist/levelize.hpp"

namespace corebist {

TimingReport analyzeTiming(const Netlist& nl, const TechLib& lib,
                           bool scan_flops) {
  const Levelization lev = levelize(nl);
  const ReaderCsr& readers = nl.readerCsr();
  const FlopSpec& ff = scan_flops ? lib.scanDff() : lib.dff();

  std::vector<double> arrival(nl.numNets(), 0.0);
  std::vector<int> depth(nl.numNets(), 0);
  for (const Dff& d : nl.dffs()) arrival[d.q] = ff.clk_to_q_ns;

  for (const GateId g : lev.order) {
    const Gate& gate = nl.gates()[g];
    double t = 0.0;
    int dep = 0;
    for (int p = 0; p < gate.nin; ++p) {
      const NetId in = gate.in[static_cast<std::size_t>(p)];
      t = std::max(t, arrival[in]);
      dep = std::max(dep, depth[in]);
    }
    const CellSpec& cs = lib.cell(gate.type);
    // Fanout load is capped: synthesis would insert a buffer tree on any
    // net wider than ~10 loads, bounding the incremental delay.
    constexpr std::size_t kMaxLoadFanout = 10;
    const std::size_t fanout =
        std::min(readers.countOf(gate.out), kMaxLoadFanout);
    const double load =
        fanout > 1 ? cs.load_ns_per_fanout * static_cast<double>(fanout - 1)
                   : 0.0;
    arrival[gate.out] = t + cs.delay_ns + load;
    depth[gate.out] = dep + 1;
  }

  TimingReport r;
  auto consider = [&r](NetId end, double t, bool is_flop, int dep) {
    if (t > r.critical_path_ns) {
      r.critical_path_ns = t;
      r.critical_endpoint = end;
      r.endpoint_is_flop = is_flop;
      r.logic_depth = dep;
    }
  };
  for (const NetId po : nl.primaryOutputs()) {
    consider(po, arrival[po], false, depth[po]);
  }
  for (const Dff& d : nl.dffs()) {
    consider(d.d, arrival[d.d] + ff.setup_ns, true, depth[d.d]);
  }
  if (r.critical_path_ns > 0.0) r.fmax_mhz = 1000.0 / r.critical_path_ns;
  return r;
}

}  // namespace corebist
