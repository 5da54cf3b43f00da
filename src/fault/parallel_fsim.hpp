// Thread-sharded fault simulation: ShardedFaultSim on its thread executor
// (FsimBackend::kThreaded), configured by thread count and shard size. See
// fault/sharded_fsim.hpp for the sharding, the stage ladder and the
// byte-identity argument (tests/parallel_fsim_test.cpp enforces it).
#ifndef COREBIST_FAULT_PARALLEL_FSIM_HPP_
#define COREBIST_FAULT_PARALLEL_FSIM_HPP_

#include "fault/sharded_fsim.hpp"

namespace corebist {

struct ParallelFsimOptions {
  /// Worker threads; 0 => std::thread::hardware_concurrency().
  int num_threads = 0;
  /// Faults per work unit. 63 fills exactly one fault-parallel machine
  /// group of the sequential kernel (bit 0 is the good machine).
  int shard_faults = 63;
};

class ParallelFaultSim final : public ShardedFaultSim {
 public:
  explicit ParallelFaultSim(const FaultSim& prototype,
                            ParallelFsimOptions popts = {})
      : ShardedFaultSim(prototype,
                        {.backend = FsimBackend::kThreaded,
                         .num_workers = popts.num_threads,
                         .shard_faults = popts.shard_faults}) {}
};

}  // namespace corebist

#endif  // COREBIST_FAULT_PARALLEL_FSIM_HPP_
