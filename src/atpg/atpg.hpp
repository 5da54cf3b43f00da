// Test-generation drivers for the Table 3 baselines.
//
// Full scan: random-pattern bootstrap (PPSFP with fault dropping) followed
// by PODEM on the survivors under a CPU budget; pattern counts convert to
// tester clocks through the ScanView shift model. Every candidate test is
// graded through `FaultSim::run` — PODEM tests accumulate into multi-block
// `VectorPatternSource` batches and each batch is simulated against the
// *entire* surviving fault list (wide CombFaultSim serially, sharded by the
// makeOrchestrator grader, a ShardedFaultSim, when num_threads > 1), so
// collateral detections drop across the whole batch before the next target
// fault is chosen.
// Transition faults use launch-on-shift pairs (v2 is v1 shifted one
// position down each chain) batched through the kernel's pair path
// (FaultSimOptions::launch); the shift constraint on v2 is why full-scan
// TDF coverage trails its stuck-at coverage. See src/atpg/README.md for the
// batch-grading flow.
//
// Sequential: simulation-based search in the spirit of the authors' own
// GATTO line — candidate weighted-random input sequences are fault-graded
// with the sequential fault simulator and the best candidate is kept. No
// scan, no constraint generator: functional inputs only, which is exactly
// why its coverage trails the BIST engine (Table 3's story).
#ifndef COREBIST_ATPG_ATPG_HPP_
#define COREBIST_ATPG_ATPG_HPP_

#include <cstdint>
#include <span>
#include <vector>

#include "fault/backend.hpp"
#include "fault/comb_fsim.hpp"
#include "fault/fault.hpp"
#include "fault/seq_fsim.hpp"
#include "scan/scan.hpp"

namespace corebist {

struct FullScanAtpgOptions {
  int max_random_blocks = 48;  // 64 patterns per block
  /// The random phase stops after this many consecutive 64-pattern blocks
  /// in which no fault first detects (transition runs count twice as many
  /// 64-pair blocks). Must be >= 1: runFullScanAtpg and
  /// runFullScanTransition throw std::invalid_argument before grading
  /// otherwise.
  int random_stall_blocks = 6;
  double podem_budget_seconds = 30.0;
  int backtrack_limit = 24;
  std::uint64_t seed = 0x5EED;
  /// Candidate tests per grading batch. PODEM tests (and LOS pair blocks,
  /// rounded up to whole 64-pair blocks) accumulate until the batch is full,
  /// then one FaultSim::run campaign grades it over every surviving fault.
  /// 256 fills exactly one pass of the default 256-lane wide kernel.
  int batch_patterns = 256;
  /// Batch-grading workers; > 1 shards the surviving fault list across the
  /// orchestrator picked by `grading_backend` (the stuck-at random phase
  /// always grades on the unsharded kernel). Results are byte-identical at
  /// any worker count and on any backend: the random phase's stall exit is
  /// replayed from global first-detection indices, not cut inside a shard.
  int num_threads = 1;
  /// Orchestrator for batch grading when num_threads > 1: kThreaded shards
  /// across worker threads (the historical behavior), kResilient across
  /// forked worker processes, kSerial ignores num_threads and grades on the
  /// wide kernel directly.
  FsimBackend grading_backend = FsimBackend::kThreaded;
  /// Guide PODEM with SCOAP testability scores (analyze/scoap.hpp): the
  /// D-frontier advances through the most observable gate and backtrace
  /// orders input choices by controllability. Pure decision ordering: off
  /// (the default) is byte-identical to the historical search; on, the set
  /// of generatable tests is unchanged but backtrack counts (and which
  /// exact pattern a fault gets) move.
  bool use_scoap = false;
};

struct FullScanAtpgResult {
  std::size_t total_faults = 0;
  std::size_t detected = 0;
  /// Faults that got no PODEM test AND that no batch graded as a collateral
  /// detection: the search hit the backtrack limit or iteration guard, the
  /// CPU budget ran out before the fault was targeted, or PODEM called it
  /// untestable. Recomputed after the final flush, so detected + aborted
  /// <= total_faults always holds.
  std::size_t aborted = 0;
  std::size_t patterns = 0;
  std::size_t test_cycles = 0;
  std::size_t podem_calls = 0;  // PODEM invocations (targets attempted)
  std::size_t batches = 0;      // FaultSim::run grading campaigns flushed
  /// Total PODEM backtracks over all calls (the SCOAP guidance metric).
  std::size_t backtracks = 0;
  double cpu_seconds = 0.0;
  [[nodiscard]] double coverage() const {
    return total_faults == 0 ? 0.0
                             : 100.0 * static_cast<double>(detected) /
                                   static_cast<double>(total_faults);
  }
};

/// Stuck-at full-scan ATPG on the scanned module's combinational view.
[[nodiscard]] FullScanAtpgResult runFullScanAtpg(
    const Netlist& scanned, const ScanView& view,
    std::span<const Fault> faults, const FullScanAtpgOptions& opts = {});

/// Transition-delay full-scan test generation (random LOS pairs).
[[nodiscard]] FullScanAtpgResult runFullScanTransition(
    const Netlist& scanned, const ScanView& view,
    std::span<const Fault> tdf_faults, const FullScanAtpgOptions& opts = {});

struct SeqAtpgOptions {
  int sequence_cycles = 12288;
  int candidates = 6;  // weighted-random profiles graded per module
  std::uint64_t seed = 0xCAFE;
  /// > 1 grades each candidate on that many threads (kThreaded shards the
  /// fault list); 1 grades on the calling thread.
  int num_threads = 2;
};

struct SeqAtpgResult {
  std::size_t total_faults = 0;
  std::size_t detected = 0;
  std::size_t effective_cycles = 0;  // prefix that yields all detections
  double cpu_seconds = 0.0;
  std::vector<std::uint64_t> best_sequence;
  [[nodiscard]] double coverage() const {
    return total_faults == 0 ? 0.0
                             : 100.0 * static_cast<double>(detected) /
                                   static_cast<double>(total_faults);
  }
};

/// Simulation-based sequential test generation on the unscanned module.
/// SeqFaultSim's sequence format packs one cycle per 64-bit word (bit j
/// drives PI j), so modules with more than 64 primary inputs are rejected
/// with std::invalid_argument instead of silently wrapping the bit shift.
[[nodiscard]] SeqAtpgResult runSequentialAtpg(const Netlist& module,
                                              std::span<const Fault> faults,
                                              const SeqAtpgOptions& opts = {});

}  // namespace corebist

#endif  // COREBIST_ATPG_ATPG_HPP_
