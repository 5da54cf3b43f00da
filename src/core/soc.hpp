// SoC assembly and the session-layer entry points (paper Fig. 1,
// generalized to multi-TAM, hierarchical chips).
//
// A Soc owns the chip TAP controller, one or more named TAMs — each
// serving its own subset of top-level wrapped cores — and the cores
// themselves, which may nest: a wrapped core can contain child wrapped
// cores reached through its parent's WIR child chain. Every core, nested
// or not, has a global index and a CoreTopology describing how the ATE
// reaches it (serving TAM, top-level slot, child-slot path). Test
// campaigns are described by a TestPlan (core/test_plan.hpp) and run by a
// CampaignService (service/service.hpp) over per-TAM SessionChannels
// (core/session_channel.hpp): `service.await(service.submit(plan))`. A
// single core is a one-entry plan: `TestPlan{}.addCore({.core_index = i,
// .patterns = n})`. Cores may be attached while a service over the SoC
// exists, between its campaigns, never during one.
#ifndef COREBIST_CORE_SOC_HPP_
#define COREBIST_CORE_SOC_HPP_

#include <memory>
#include <string>
#include <vector>

#include "core/wrapped_core.hpp"
#include "jtag/tap.hpp"
#include "tam/tam.hpp"

namespace corebist {

class Soc {
 public:
  /// Hierarchical access cost doubles per level (routing an ancestor's WIR
  /// is itself a hierarchical scan), so nesting is capped.
  static constexpr int kMaxHierarchyDepth = 4;

  explicit Soc(std::string name = "soc");

  /// How the ATE reaches a core.
  struct CoreTopology {
    int tam = 0;        // serving TAM index
    int parent = -1;    // parent core's global index; -1 = top-level
    int root = -1;      // top-level ancestor (own index when top-level)
    int top_slot = -1;  // the root's slot on its TAM
    /// Child-slot chain from the root down to this core (empty when
    /// top-level). size() is the nesting depth.
    std::vector<int> child_path;
    [[nodiscard]] int depth() const noexcept {
      return static_cast<int>(child_path.size());
    }
  };

  /// Add a named TAM; returns its index. TAM 0 ("tam0", classic IR block)
  /// always exists. Throws when the chip TAP's IR space cannot hold
  /// another block.
  int addTam(std::string name = "");

  /// Add a finalized-on-attach top-level core served by TAM `tam_index`;
  /// returns the core's global index.
  int attachCore(std::unique_ptr<WrappedCore> core, int tam_index = 0);

  /// Add a finalized-on-attach core nested inside `parent_index`'s wrapper
  /// child chain; returns the core's global index. The child is reached
  /// through its ancestor chain on the parent's TAM and shares the
  /// parent's clock domain.
  int attachChildCore(std::unique_ptr<WrappedCore> core, int parent_index);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] WrappedCore& core(int i) {
    return *cores_.at(static_cast<std::size_t>(i));
  }
  [[nodiscard]] int coreCount() const noexcept {
    return static_cast<int>(cores_.size());
  }
  [[nodiscard]] const CoreTopology& topology(int i) const {
    return topo_.at(static_cast<std::size_t>(i));
  }
  [[nodiscard]] TapController& tap() noexcept { return tap_; }
  /// TAM `t` (default: the classic TAM 0).
  [[nodiscard]] Tam& tam(int t = 0) {
    return *tams_.at(static_cast<std::size_t>(t));
  }
  [[nodiscard]] int tamCount() const noexcept {
    return static_cast<int>(tams_.size());
  }
  [[nodiscard]] const std::string& tamName(int t) const {
    return tams_.at(static_cast<std::size_t>(t))->name();
  }

 private:
  std::string name_;
  TapController tap_;
  // Heap-allocated: a Tam registers TAP lambdas capturing its address.
  std::vector<std::unique_ptr<Tam>> tams_;
  std::vector<std::unique_ptr<WrappedCore>> cores_;
  std::vector<CoreTopology> topo_;
};

}  // namespace corebist

#endif  // COREBIST_CORE_SOC_HPP_
