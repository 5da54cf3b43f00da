// The paper's LDPC-decoder case study, with every pseudo-random input
// derived from one workload seed.
//
// The module hookups mirror the Table/Figure benches: a 20-bit ALFSR, one
// schedule constraint generator (CG) on the 4-bit path_sel port of
// BIT_NODE and CHECK_NODE, biased CGs on their ctrl ports, and pulse /
// schedule CGs on CONTROL_UNIT's run-control pins. Only the seeds differ:
// the ALFSR seed and every biased CG's private LFSR seed come from the
// workload seed, so two seeds give two different (equally shaped) BIST
// stimuli and the library only ever sees the generated inputs.
#ifndef COREBENCH_CASE_STUDY_HPP_
#define COREBENCH_CASE_STUDY_HPP_

#include <cstdint>
#include <vector>

#include "bist/engine.hpp"
#include "fault/fault.hpp"
#include "netlist/netlist.hpp"

namespace corebench {

/// splitmix64 step: a well-mixed 64-bit value from (seed, stream tag).
[[nodiscard]] std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t tag);

/// Every input the workload seed drives.
struct Seeds {
  std::uint64_t alfsr = 0;      // 20-bit ALFSR seed (nonzero)
  std::uint64_t cg_bn = 0;      // BIT_NODE ctrl CG LFSR seed
  std::uint64_t cg_cn = 0;      // CHECK_NODE ctrl CG LFSR seed
  std::uint64_t cg_cu_step = 0;  // CONTROL_UNIT step_en CG seed
  std::uint64_t cg_cu_mem = 0;   // CONTROL_UNIT mem_ready CG seed
  std::uint64_t atpg = 0;       // full-scan ATPG rng seed
  std::uint64_t sample = 0;     // CHECK_NODE fault sample source
  std::uint64_t defect = 0;     // SoC defect-site source

  [[nodiscard]] static Seeds from(std::uint64_t seed);
  /// Inputs of input instance `k` of a run: instance 0 is from(seed), the
  /// others come from seeds derived from it.
  [[nodiscard]] static Seeds instance(std::uint64_t seed, int k);
};

enum class Module { kBitNode, kCheckNode, kControlUnit };

/// Short module tags used in metric names: "bn", "cn", "cu".
[[nodiscard]] const char* moduleTag(Module m);

/// Gate-level netlist of a case-study module.
[[nodiscard]] corebist::Netlist buildModule(Module m);

/// The case study's constraint generators for module `m`, seeded.
[[nodiscard]] std::vector<corebist::ConstrainedPort> caseStudyConstraints(
    Module m, const Seeds& seeds);

/// The case study's BIST engine configuration with the seeded ALFSR.
[[nodiscard]] corebist::BistEngineConfig caseStudyEngineConfig(
    const Seeds& seeds);

/// A seeded sample of one in `stride` of `faults` (fixed size, in the
/// original order), drawn from `source`.
[[nodiscard]] std::vector<corebist::Fault> sampleFaults(
    const std::vector<corebist::Fault>& faults, int stride,
    std::uint64_t source);

}  // namespace corebench

#endif  // COREBENCH_CASE_STUDY_HPP_
