#include "sim/seq_sim.hpp"

namespace corebist {

void SeqSim::reset() {
  for (const Dff& ff : netlist().dffs()) sim_.set(ff.q, 0);
}

void SeqSim::clockEdge() {
  auto& val = sim_.values();
  const auto& dffs = netlist().dffs();
  // Two-phase capture: a D net may itself be another flip-flop's Q net
  // (direct FF-to-FF shift paths), so snapshot all D values before writing.
  dtmp_.resize(dffs.size());
  for (std::size_t i = 0; i < dffs.size(); ++i) dtmp_[i] = val[dffs[i].d];
  for (std::size_t i = 0; i < dffs.size(); ++i) val[dffs[i].q] = dtmp_[i];
}

}  // namespace corebist
