#include "eval/flow.hpp"

#include <algorithm>

#include "fault/parallel_fsim.hpp"
#include "fault/seq_fsim.hpp"
#include "sim/seq_sim.hpp"
#include "sim/toggle.hpp"

namespace corebist {

Step1Result runStep1Loop(ldpc::ModuleAdapter& model, const Netlist& gate_level,
                         std::span<const std::uint64_t> stimulus,
                         std::span<const int> checkpoints) {
  Step1Result res;
  StatementCoverage cov(model.numStatements());
  model.reset(&cov);

  SeqSim sim(gate_level);
  sim.reset();
  ToggleMonitor toggles(gate_level);
  const auto& pis = gate_level.primaryInputs();

  int applied = 0;
  for (const int target : checkpoints) {
    for (; applied < target &&
           applied < static_cast<int>(stimulus.size());
         ++applied) {
      const std::uint64_t w = stimulus[static_cast<std::size_t>(applied)];
      model.step(w);
      for (std::size_t j = 0; j < pis.size(); ++j) {
        sim.comb().set(pis[j], broadcast(((w >> j) & 1u) != 0));
      }
      sim.evalComb();
      toggles.observe(sim.comb());
      sim.clockEdge();
    }
    Step1Point p;
    p.patterns = applied;
    p.statement_coverage = cov.coverage();
    p.toggle_activity = toggles.toggleActivity();
    res.points.push_back(p);
    if (res.patterns_at_full_statement < 0 &&
        cov.covered() == cov.total()) {
      res.patterns_at_full_statement = applied;
    }
  }
  return res;
}

Step2Result runStep2Loop(const Netlist& module, std::span<const Fault> faults,
                         std::span<const std::uint64_t> stimulus,
                         std::span<const int> checkpoints, double target_fc) {
  Step2Result res;
  ParallelFaultSim fsim{SeqFaultSim(module)};
  const CyclePatternSource patterns(stimulus,
                                    module.primaryInputs().size());
  FaultSimOptions opts;
  opts.cycles = static_cast<int>(stimulus.size());
  const FaultSimResult r = fsim.run(faults, patterns, opts);

  // first_detect gives the cumulative curve directly.
  std::vector<std::int32_t> detect_cycles;
  for (const auto fd : r.first_detect) {
    if (fd >= 0) detect_cycles.push_back(fd);
  }
  std::sort(detect_cycles.begin(), detect_cycles.end());

  for (const int cp : checkpoints) {
    const auto it = std::upper_bound(detect_cycles.begin(),
                                     detect_cycles.end(), cp - 1);
    const double fc = faults.empty()
                          ? 0.0
                          : 100.0 *
                                static_cast<double>(it - detect_cycles.begin()) /
                                static_cast<double>(faults.size());
    res.points.push_back(Step2Point{cp, fc});
    if (res.patterns_at_target < 0 && fc >= target_fc) {
      res.patterns_at_target = cp;
    }
  }
  res.final_coverage = r.coverage();
  return res;
}

}  // namespace corebist
