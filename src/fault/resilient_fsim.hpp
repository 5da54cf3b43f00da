// Self-healing fork-sharded fault simulation: ShardedFaultSim on its fork
// executor under the full supervision policy (FsimBackend::kResilient) —
// shard retry with backoff, then degradation process -> threaded -> serial
// or a rethrow. See fault/sharded_fsim.hpp; tests/resilience_test.cpp pins
// byte-identity under injected failure schedules.
#ifndef COREBIST_FAULT_RESILIENT_FSIM_HPP_
#define COREBIST_FAULT_RESILIENT_FSIM_HPP_

#include "fault/sharded_fsim.hpp"

namespace corebist {

struct ResilientFsimOptions {
  /// Worker processes; 0 => std::thread::hardware_concurrency().
  int num_workers = 0;
  /// Faults per work unit (same default as the other orchestrators).
  int shard_faults = 63;
  /// Per-shard monotonic watchdog, as in ProcessFsimOptions::timeout_ms.
  int timeout_ms = 120'000;
  /// Re-dispatches a single shard gets before the supervisor gives up on
  /// the process rung (0 = any failure degrades immediately).
  int max_shard_retries = 3;
  /// Exponential backoff before a respawn: attempt k sleeps
  /// min(backoff_base_ms << (k-1), kMaxBackoffMs). <= 0 disables sleeping.
  int backoff_base_ms = 1;
  /// After the retry budget: true = step down the ladder
  /// (process -> threaded -> serial), false = rethrow the underlying
  /// ProcessFsimError.
  bool degrade_on_failure = true;
};

class ResilientFaultSim final : public ShardedFaultSim {
 public:
  explicit ResilientFaultSim(const FaultSim& prototype,
                             ResilientFsimOptions ropts = {})
      : ShardedFaultSim(prototype,
                        {.backend = FsimBackend::kResilient,
                         .num_workers = ropts.num_workers,
                         .shard_faults = ropts.shard_faults,
                         .timeout_ms = ropts.timeout_ms,
                         .max_shard_retries = ropts.max_shard_retries,
                         .backoff_base_ms = ropts.backoff_base_ms,
                         .degrade_on_failure = ropts.degrade_on_failure}) {}
};

}  // namespace corebist

#endif  // COREBIST_FAULT_RESILIENT_FSIM_HPP_
