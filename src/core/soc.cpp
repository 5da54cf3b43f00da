#include "core/soc.hpp"

#include <stdexcept>

namespace corebist {

Soc::Soc(std::string name) : name_(std::move(name)), tap_(4) {
  tams_.push_back(std::make_unique<Tam>(tap_, Tam::kIrSelect, "tam0"));
}

int Soc::addTam(std::string name) {
  const auto t = static_cast<std::uint32_t>(tams_.size());
  const std::uint32_t ir_base = Tam::kIrSelect + Tam::kIrStride * t;
  const std::uint32_t all_ones = (1u << tap_.irWidth()) - 1u;
  // The block must stay clear of the all-ones BYPASS code (blocks grow
  // upward from kIrSelect, so IDCODE below is never reachable).
  if (ir_base + Tam::kIrStride - 1 >= all_ones ||
      tap_.freeIrSlots() < static_cast<int>(Tam::kIrStride)) {
    throw std::invalid_argument(
        "Soc: TAP IR space exhausted, cannot allocate TAM " +
        std::to_string(t) + " (widen the chip TAP's IR)");
  }
  if (name.empty()) name = "tam" + std::to_string(t);
  tams_.push_back(std::make_unique<Tam>(tap_, ir_base, std::move(name)));
  return static_cast<int>(t);
}

int Soc::attachCore(std::unique_ptr<WrappedCore> core, int tam_index) {
  if (tam_index < 0 || tam_index >= tamCount()) {
    throw std::invalid_argument("Soc: no TAM with index " +
                                std::to_string(tam_index));
  }
  core->finalize();
  WrappedCore* raw = core.get();
  cores_.push_back(std::move(core));
  CoreTopology topo;
  topo.tam = tam_index;
  topo.root = static_cast<int>(cores_.size()) - 1;
  topo.top_slot =
      tam(tam_index).attach(&raw->wrapper(), [raw] { raw->systemClockTick(); });
  topo_.push_back(std::move(topo));
  return static_cast<int>(cores_.size()) - 1;
}

int Soc::attachChildCore(std::unique_ptr<WrappedCore> core, int parent_index) {
  if (parent_index < 0 || parent_index >= coreCount()) {
    throw std::invalid_argument("Soc: no parent core with index " +
                                std::to_string(parent_index));
  }
  const CoreTopology& parent = topology(parent_index);
  if (parent.depth() + 1 > kMaxHierarchyDepth) {
    throw std::invalid_argument(
        "Soc: nesting under core " + std::to_string(parent_index) +
        " exceeds the maximum hierarchy depth of " +
        std::to_string(kMaxHierarchyDepth));
  }
  core->finalize();
  WrappedCore* raw = core.get();
  // The wrapper chain rejects duplicate/cyclic attachments; the child is
  // ticked by its parent (one clock domain per top-level core), not by a
  // TAM slot of its own.
  const int slot = this->core(parent_index).addChild(raw);
  cores_.push_back(std::move(core));
  CoreTopology topo;
  topo.tam = parent.tam;
  topo.parent = parent_index;
  topo.root = parent.root;
  topo.top_slot = parent.top_slot;
  topo.child_path = parent.child_path;
  topo.child_path.push_back(slot);
  topo_.push_back(std::move(topo));
  return static_cast<int>(cores_.size()) - 1;
}

}  // namespace corebist
