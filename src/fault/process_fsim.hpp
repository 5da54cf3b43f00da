// Fork-sharded fault simulation: ShardedFaultSim on its fork executor with
// no retries and no degradation (FsimBackend::kProcess), so the first
// worker death, hang or corrupted frame throws a ProcessFsimError. See
// fault/sharded_fsim.hpp; tests/process_fsim_test.cpp pins the results and
// the failure paths.
#ifndef COREBIST_FAULT_PROCESS_FSIM_HPP_
#define COREBIST_FAULT_PROCESS_FSIM_HPP_

#include "fault/sharded_fsim.hpp"

namespace corebist {

struct ProcessFsimOptions {
  /// Worker processes; 0 => std::thread::hardware_concurrency().
  int num_workers = 0;
  /// Faults per work unit (same default as ParallelFsimOptions: one
  /// fault-parallel machine group of the sequential kernel).
  int shard_faults = 63;
  /// Milliseconds a dispatched shard has to come back as a *complete*
  /// response, measured against a monotonic deadline armed at dispatch —
  /// partial reads and poll() wakeups do not reset it, so a slow-dribbling
  /// worker cannot evade the watchdog (kTimeout). <= 0 waits forever —
  /// only sensible under a debugger.
  int timeout_ms = 120'000;
};

class ProcessFaultSim final : public ShardedFaultSim {
 public:
  explicit ProcessFaultSim(const FaultSim& prototype,
                           ProcessFsimOptions popts = {})
      : ShardedFaultSim(prototype, {.backend = FsimBackend::kProcess,
                                    .num_workers = popts.num_workers,
                                    .shard_faults = popts.shard_faults,
                                    .timeout_ms = popts.timeout_ms}) {}
};

}  // namespace corebist

#endif  // COREBIST_FAULT_PROCESS_FSIM_HPP_
