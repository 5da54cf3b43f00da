#include "sim/gate_program.hpp"

#include "netlist/levelize.hpp"

namespace corebist {

GateProgram::GateProgram(const Netlist& nl) : nl_(&nl) {
  Levelization lev = levelize(nl);
  const auto& gates = nl.gates();
  const std::size_t num_levels =
      gates.empty() ? 0 : static_cast<std::size_t>(lev.depth) + 1;

  // Counting sort by key = level * kNumGateTypes + type; gates keep their id
  // order inside a key.
  const auto key = [&](GateId g) {
    return static_cast<std::size_t>(lev.level[g]) * kNumGateTypes +
           static_cast<std::size_t>(gates[g].type);
  };
  run_start_.assign(num_levels * kNumGateTypes + 1, 0);
  for (GateId g = 0; g < gates.size(); ++g) ++run_start_[key(g) + 1];
  for (std::size_t k = 1; k < run_start_.size(); ++k) {
    run_start_[k] += run_start_[k - 1];
  }
  std::vector<std::uint32_t> fill(run_start_.begin(), run_start_.end() - 1);
  ops_.resize(gates.size());
  for (GateId g = 0; g < gates.size(); ++g) {
    const Gate& gate = gates[g];
    Op op{gate.out, gate.out, gate.out, gate.out};
    if (gate.nin > 0) op.a = gate.in[0];
    if (gate.nin > 1) op.b = gate.in[1];
    if (gate.nin > 2) op.s = gate.in[2];
    ops_[fill[key(g)]++] = op;
  }
  gate_level_ = std::move(lev.level);
}

int GateProgram::driverLevel(NetId n) const {
  const GateId g = nl_->driverOf(n);
  return g == Netlist::kNoDriver ? -1 : gate_level_[g];
}

}  // namespace corebist
