// WrappedCore: a logic core equipped with the paper's complete test
// architecture — BIST engine (ALFSR + CGs + MISRs + control unit) behind a
// P1500 wrapper (Fig. 1/2/5 assembled).
//
// The core's modules are given as gate-level netlists; a pin-compatible
// "physical" copy per module represents the manufactured instance, into
// which defects can be injected. WCDR commands drive the BIST control unit;
// Run-Test/Idle system clocks advance the pattern counter; when the
// programmed count is reached the MISR signatures of the physical modules
// are available through the WDR via the Output Selector.
#ifndef COREBIST_CORE_WRAPPED_CORE_HPP_
#define COREBIST_CORE_WRAPPED_CORE_HPP_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bist/control_unit.hpp"
#include "bist/engine.hpp"
#include "p1500/wrapper.hpp"

namespace corebist {

class WrappedCore {
 public:
  WrappedCore(std::string name, BistEngineConfig cfg = {});

  /// Register a module (reference netlist + constrained ports). The
  /// reference is copied as the initial physical instance.
  int addModule(const Netlist& reference,
                std::vector<ConstrainedPort> constraints = {});

  /// Model a manufacturing defect in the physical instance of a module.
  void injectDefect(int module, GateId gate, GateType new_type);
  /// Restore the physical instance to the fault-free reference.
  void healModule(int module);

  /// Must be called after all modules are added.
  void finalize();

  /// Attach an already-finalized child core reached through this core's
  /// wrapper child chain (a wrapped core inside a wrapped core). Returns
  /// the child's slot in the chain. The child shares this core's clock
  /// domain: systemClockTick() fans out to the whole subtree, so a nested
  /// core's at-speed run is driven through its top-level ancestor's TAM
  /// selection. Both cores must be finalized; cycles and duplicates are
  /// rejected by the wrapper chain.
  int addChild(WrappedCore* child);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] P1500Wrapper& wrapper() { return *wrapper_; }
  [[nodiscard]] const BistEngine& engine() const noexcept { return engine_; }
  [[nodiscard]] BistControlUnit& controlUnit() noexcept { return cu_; }
  [[nodiscard]] int moduleCount() const noexcept {
    return engine_.moduleCount();
  }

  /// One system clock (forwarded from Run-Test/Idle by the TAM). Fans out
  /// to every child core: the subtree is one clock domain, like the
  /// hardware it models.
  void systemClockTick();

  /// Fault-free signature of module `m` for `patterns` patterns.
  [[nodiscard]] std::uint16_t goldenSignature(int m, int patterns) const;

 private:
  void onCommand(BistCommand cmd, std::uint16_t data);
  [[nodiscard]] std::uint32_t readData() const;
  void completeRun();

  std::string name_;
  BistEngine engine_;
  BistControlUnit cu_;
  std::unique_ptr<P1500Wrapper> wrapper_;
  std::vector<Netlist> physical_;
  std::vector<std::uint16_t> signatures_;
  std::vector<WrappedCore*> children_;
  bool run_complete_ = false;
};

}  // namespace corebist

#endif  // COREBIST_CORE_WRAPPED_CORE_HPP_
