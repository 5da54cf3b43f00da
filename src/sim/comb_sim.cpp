#include "sim/comb_sim.hpp"

namespace corebist {

CombSim::CombSim(const Netlist& nl)
    : nl_(nl), prog_(nl), val_(nl.numNets(), 0) {}

void CombSim::setBusBroadcast(const Bus& b, std::uint64_t value) {
  for (std::size_t i = 0; i < b.size(); ++i) {
    val_[b[i]] = broadcast(((value >> i) & 1u) != 0);
  }
}

std::uint64_t CombSim::getBusLane(const Bus& b, int lane) const {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    v |= ((val_[b[i]] >> lane) & 1u) << i;
  }
  return v;
}

}  // namespace corebist
