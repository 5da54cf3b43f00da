// Backend selection for fault-simulation campaigns.
//
// One enum + factory pair behind which every fault-sim consumer (ATPG batch
// grading, BistEngine::signatureCoverage, the benches and corebench) picks
// its execution backend per campaign instead of hard-coding an engine
// class:
//
//   kSerial    - the prototype engine itself (one process, one thread)
//   kThreaded  - ShardedFaultSim's thread executor: fault shards graded on
//                worker-thread engine clones, unsupervised
//   kResilient - ShardedFaultSim's fork executor: fault shards graded in
//                forked workers under the supervision policy (shard retry
//                with backoff, then the degradation ladder process ->
//                threaded -> serial); {max_shard_retries = 0,
//                degrade_on_failure = false} throws on the first failure
//
// The two sharded backends are one orchestrator (fault/sharded_fsim.hpp)
// with one sharding loop; they differ only in executor and policy.
//
// Orthogonally, makeCombFaultSim() picks the lane width of the PPSFP kernel
// (64/128/256/512 pattern lanes per pass) at runtime from the same options
// struct. All backends are byte-identical on results by construction; the
// choice is purely a throughput/isolation trade (see src/fault/README.md,
// "Backend ladder").
#ifndef COREBIST_FAULT_BACKEND_HPP_
#define COREBIST_FAULT_BACKEND_HPP_

#include <memory>
#include <span>

#include "fault/fault_sim.hpp"

namespace corebist {

enum class FsimBackend {
  kSerial,
  kThreaded,
  kResilient,
};

/// Stable lowercase name ("serial" / "threaded" / "resilient"), for logs
/// and test traces.
[[nodiscard]] const char* fsimBackendName(FsimBackend b) noexcept;

struct FsimBackendOptions {
  FsimBackend backend = FsimBackend::kSerial;
  /// PPSFP kernel width in 64-lane words (1, 2, 4 or 8); 0 => the build
  /// default kLaneWords. Only meaningful for makeCombFaultSim.
  int lane_words = 0;
  /// Worker threads/processes for the orchestrated backends; 0 => one per
  /// hardware thread. Ignored by kSerial.
  int num_workers = 0;
  /// Faults per work unit for the orchestrated backends.
  int shard_faults = 63;
  /// Worker-hang watchdog for kResilient: milliseconds a dispatched shard
  /// has to come back as a complete response, against a monotonic deadline
  /// armed at dispatch. Partial reads and poll() wakeups do not reset it,
  /// so a slow-dribbling worker cannot evade it (kTimeout). <= 0 waits
  /// forever, only sensible under a debugger.
  int timeout_ms = 120'000;
  /// kResilient only: re-dispatches one shard gets before the supervisor
  /// leaves the process rung.
  int max_shard_retries = 3;
  /// kResilient only: exponential-backoff base before a worker respawn
  /// (backoffMs in fault/failpoint.hpp; capped at kMaxBackoffMs).
  int backoff_base_ms = 1;
  /// kResilient only: after the retry budget, step down the ladder
  /// (process -> threaded -> serial) instead of throwing ProcessFsimError.
  bool degrade_on_failure = true;
};

/// Combinational (full-scan) engine of the requested lane width, wrapped in
/// the requested orchestrator. lane_words outside {0, 1, 2, 4, 8} throws
/// std::invalid_argument.
[[nodiscard]] std::unique_ptr<FaultSim> makeCombFaultSim(
    const Netlist& nl, std::span<const NetId> inputs,
    std::span<const NetId> observed, const FsimBackendOptions& opts = {});

/// Wrap an existing prototype engine (combinational or sequential) in the
/// requested orchestrator: a ShardedFaultSim for every sharded backend, a
/// plain clone for kSerial, so callers can treat them all uniformly; the
/// prototype may die before the result.
[[nodiscard]] std::unique_ptr<FaultSim> makeOrchestrator(
    const FaultSim& prototype, const FsimBackendOptions& opts);

}  // namespace corebist

#endif  // COREBIST_FAULT_BACKEND_HPP_
