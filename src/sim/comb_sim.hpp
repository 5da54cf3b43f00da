// 64-way bit-parallel combinational simulation.
//
// Each net carries a 64-bit word: bit k is the value of the net in
// simulation context k. Contexts are either 64 independent test patterns
// (PPSFP-style pattern-parallel simulation) or 1 good machine + 63 faulty
// machines (fault-parallel sequential simulation). eval() runs the
// netlist's GateProgram, compiled once at construction.
#ifndef COREBIST_SIM_COMB_SIM_HPP_
#define COREBIST_SIM_COMB_SIM_HPP_

#include <cstdint>
#include <vector>

#include "netlist/builder.hpp"
#include "netlist/netlist.hpp"
#include "sim/gate_program.hpp"

namespace corebist {

/// All-ones / all-zeros word for broadcasting a scalar value to 64 contexts.
[[nodiscard]] constexpr std::uint64_t broadcast(bool v) noexcept {
  return v ? ~std::uint64_t{0} : std::uint64_t{0};
}

class CombSim {
 public:
  explicit CombSim(const Netlist& nl);

  [[nodiscard]] const Netlist& netlist() const noexcept { return nl_; }

  void set(NetId n, std::uint64_t w) { val_[n] = w; }
  [[nodiscard]] std::uint64_t get(NetId n) const { return val_[n]; }

  /// Broadcast an integer across all 64 contexts of a bus (bit i of `value`
  /// drives every context of bus bit i).
  void setBusBroadcast(const Bus& b, std::uint64_t value);
  /// Read back lane `lane` of a bus as an integer.
  [[nodiscard]] std::uint64_t getBusLane(const Bus& b, int lane) const;

  /// Evaluate all gates in topological order.
  void eval() { prog_.eval(val_); }

  /// Direct access to the value array (index by NetId).
  [[nodiscard]] std::vector<std::uint64_t>& values() noexcept { return val_; }
  [[nodiscard]] const std::vector<std::uint64_t>& values() const noexcept {
    return val_;
  }

 private:
  const Netlist& nl_;
  GateProgram prog_;
  std::vector<std::uint64_t> val_;
};

}  // namespace corebist

#endif  // COREBIST_SIM_COMB_SIM_HPP_
