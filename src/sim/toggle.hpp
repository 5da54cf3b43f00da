// Toggle-activity measurement (paper §3.2 step 1).
//
// The paper's first evaluation step measures, next to statement coverage,
// the "percent number of variables toggled by the patterns". Here the
// equivalent structural metric is the fraction of nets that see both a
// rising and a falling edge while a pattern sequence runs.
#ifndef COREBIST_SIM_TOGGLE_HPP_
#define COREBIST_SIM_TOGGLE_HPP_

#include <cstdint>
#include <vector>

#include "sim/comb_sim.hpp"

namespace corebist {

class ToggleMonitor {
 public:
  explicit ToggleMonitor(const Netlist& nl)
      : prev_(nl.numNets(), 0),
        rose_(nl.numNets(), 0),
        fell_(nl.numNets(), 0),
        primed_(false) {}

  /// Record one evaluated time step (call after CombSim::eval()).
  void observe(const CombSim& sim);

  /// Fraction of nets that saw both a 0->1 and a 1->0 edge, in [0,1].
  [[nodiscard]] double toggleActivity() const;

 private:
  std::vector<std::uint64_t> prev_;
  std::vector<std::uint64_t> rose_;
  std::vector<std::uint64_t> fell_;
  bool primed_;
};

}  // namespace corebist

#endif  // COREBIST_SIM_TOGGLE_HPP_
