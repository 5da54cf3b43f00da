// The paper's evaluation flows (§3.2, Fig. 3 and Fig. 4).
//
// Step 1 (Fig. 3): pseudo-random patterns run on the RTL; statement
// coverage and toggle activity accumulate until "enough" — the loop adds
// patterns while the metrics still improve.
//
// Step 2 (Fig. 4): the synthesized module (with the pattern generator and
// MISRs merged) is fault-simulated; while fault coverage is below target
// and the pattern budget allows, more patterns are added. One sequential
// fault-simulation run yields the whole FC-vs-patterns curve, since the
// first-detection cycle of every fault is recorded.
#ifndef COREBIST_EVAL_FLOW_HPP_
#define COREBIST_EVAL_FLOW_HPP_

#include <cstdint>
#include <span>
#include <vector>

#include "fault/fault.hpp"
#include "ldpc/arch/adapters.hpp"
#include "netlist/netlist.hpp"

namespace corebist {

struct Step1Point {
  int patterns = 0;
  double statement_coverage = 0.0;  // [0,1]
  double toggle_activity = 0.0;     // [0,1]
};

struct Step1Result {
  std::vector<Step1Point> points;
  int patterns_at_full_statement = -1;  // first checkpoint reaching 100 %
};

/// Run the Fig. 3 loop: the same stimulus drives the behavioural model
/// (statement coverage) and the gate-level netlist (toggle activity);
/// metrics are sampled at each checkpoint.
[[nodiscard]] Step1Result runStep1Loop(ldpc::ModuleAdapter& model,
                                       const Netlist& gate_level,
                                       std::span<const std::uint64_t> stimulus,
                                       std::span<const int> checkpoints);

struct Step2Point {
  int patterns = 0;
  double fault_coverage = 0.0;  // percent
};

struct Step2Result {
  std::vector<Step2Point> points;
  int patterns_at_target = -1;
  double final_coverage = 0.0;
};

/// Run the Fig. 4 loop on a module with the given stimulus; checkpoints are
/// pattern counts, target_fc in percent. The whole curve comes from one
/// ParallelFaultSim campaign on every hardware thread, since every fault's
/// first-detection cycle is recorded.
[[nodiscard]] Step2Result runStep2Loop(const Netlist& module,
                                       std::span<const Fault> faults,
                                       std::span<const std::uint64_t> stimulus,
                                       std::span<const int> checkpoints,
                                       double target_fc);

}  // namespace corebist

#endif  // COREBIST_EVAL_FLOW_HPP_
