#include "fault/backend.hpp"

#include <stdexcept>

#include "fault/comb_fsim.hpp"
#include "fault/sharded_fsim.hpp"

namespace corebist {

const char* fsimBackendName(FsimBackend b) noexcept {
  switch (b) {
    case FsimBackend::kSerial:
      return "serial";
    case FsimBackend::kThreaded:
      return "threaded";
    case FsimBackend::kResilient:
      return "resilient";
  }
  return "serial";
}

std::unique_ptr<FaultSim> makeOrchestrator(const FaultSim& prototype,
                                           const FsimBackendOptions& opts) {
  if (opts.backend == FsimBackend::kSerial) return prototype.clone();
  return std::make_unique<ShardedFaultSim>(prototype, opts);
}

std::unique_ptr<FaultSim> makeCombFaultSim(const Netlist& nl,
                                           std::span<const NetId> inputs,
                                           std::span<const NetId> observed,
                                           const FsimBackendOptions& opts) {
  std::unique_ptr<FaultSim> engine;
  switch (opts.lane_words == 0 ? kLaneWords : opts.lane_words) {
    case 1:
      engine = std::make_unique<CombFaultSimT<1>>(nl, inputs, observed);
      break;
    case 2:
      engine = std::make_unique<CombFaultSimT<2>>(nl, inputs, observed);
      break;
    case 4:
      engine = std::make_unique<CombFaultSimT<4>>(nl, inputs, observed);
      break;
    case 8:
      engine = std::make_unique<CombFaultSimT<8>>(nl, inputs, observed);
      break;
    default:
      throw std::invalid_argument(
          "makeCombFaultSim: lane_words must be 0, 1, 2, 4 or 8");
  }
  if (opts.backend == FsimBackend::kSerial) return engine;
  return makeOrchestrator(*engine, opts);
}

}  // namespace corebist
