// BIST engine assembly (paper §3.1, Fig. 2).
//
// One ALFSR drives every attached module ("for cores composed of many
// functional blocks, only one ALFSR circuitry can be employed"); each module
// gets a per-module MISR fed through an XOR cascade and an optional set of
// Constraint Generators on its constrained input ports. The engine
// classifies each hookup into the paper's four architectural cases:
//   a) no constrained inputs, ALFSR width >= input width
//   b) no constrained inputs, input width  > ALFSR width (replication)
//   c) constrained inputs,    ALFSR width >= remaining width
//   d) constrained inputs,    remaining width > ALFSR width (replication)
#ifndef COREBIST_BIST_ENGINE_HPP_
#define COREBIST_BIST_ENGINE_HPP_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bist/constraint_gen.hpp"
#include "fault/backend.hpp"
#include "bist/control_unit.hpp"
#include "bist/lfsr.hpp"
#include "bist/misr.hpp"
#include "netlist/netlist.hpp"

namespace corebist {

struct BistEngineConfig {
  int lfsr_width = 20;
  std::uint64_t lfsr_seed = 0xACE1u;
  std::vector<int> lfsr_taps;  // empty => primitive polynomial default
  int misr_width = 16;
  int counter_bits = 12;  // pattern counter => up to 4096 patterns
};

/// Binds a constraint generator to a named input port of a module.
struct ConstrainedPort {
  std::string port_name;
  std::shared_ptr<ConstraintGenerator> cg;
};

/// Where each module input bit is sourced from.
enum class InputSourceKind : std::uint8_t { kAlfsr, kConstraint };
struct InputSource {
  InputSourceKind kind = InputSourceKind::kAlfsr;
  int index = 0;  // ALFSR bit, or CG id
  int bit = 0;    // bit within the CG value
};

class BistEngine {
 public:
  explicit BistEngine(BistEngineConfig cfg = {});

  [[nodiscard]] const BistEngineConfig& config() const noexcept {
    return cfg_;
  }

  /// Attach a module; `constraints` name input ports driven by CGs.
  /// Returns the module slot index (also the MISR / result-select index).
  int attachModule(const Netlist& module,
                   std::vector<ConstrainedPort> constraints = {});

  [[nodiscard]] int moduleCount() const noexcept {
    return static_cast<int>(modules_.size());
  }
  [[nodiscard]] const Netlist& module(int m) const {
    return *modules_.at(static_cast<std::size_t>(m)).nl;
  }

  /// Paper §3.1 architectural case ('a'..'d') of a hookup.
  [[nodiscard]] char architecturalCase(int m) const;

  /// Per-input-bit source map of a module (index = PI position).
  [[nodiscard]] const std::vector<InputSource>& inputMap(int m) const {
    return modules_.at(static_cast<std::size_t>(m)).map;
  }

  /// Number of constraint generators attached to module `m`.
  [[nodiscard]] int constraintCount(int m) const {
    return static_cast<int>(modules_.at(static_cast<std::size_t>(m)).cgs.size());
  }
  [[nodiscard]] const ConstraintGenerator& constraintGenerator(int m,
                                                               int cg) const {
    return *modules_.at(static_cast<std::size_t>(m))
                .cgs.at(static_cast<std::size_t>(cg));
  }

  /// Packed per-cycle stimulus for module `m`: bit j of word c drives the
  /// j-th primary input at cycle c. All modules share the ALFSR sequence,
  /// so they are tested simultaneously (paper: "the BIST patterns are the
  /// same for all modules to be tested").
  [[nodiscard]] std::vector<std::uint64_t> stimulus(int m, int cycles) const;

  /// MISR specification (for the fault simulator) of module `m`.
  [[nodiscard]] MisrSpec misrSpec(int m) const;

  /// Fault-free signature of module `m` after `cycles` patterns: runAndSign()
  /// on the module's own netlist.
  [[nodiscard]] std::uint64_t goldenSignature(int m, int cycles) const;

  /// Behavioral self-test: applies `cycles` patterns to a physical netlist
  /// (which must be pin-compatible with module `m`, e.g. a defective copy)
  /// and returns the MISR signature. Shares the good-machine signature path
  /// of the fault-simulation kernel with goldenSignature(), so golden and
  /// measured signatures can never drift apart arithmetically.
  [[nodiscard]] std::uint64_t runAndSign(int m, const Netlist& physical,
                                         int cycles) const;

  /// Signature-qualification coverage of module `m`: fault-simulates
  /// `faults` under the BIST stimulus with the module's MISR compaction
  /// model attached, on the backend `bopts` names (kSerial grades on one
  /// sequential engine; kThreaded shards the faults across
  /// `bopts.num_workers` worker threads, 0 => hardware concurrency;
  /// kResilient shards them across forked worker processes, with its retry
  /// budget, backoff and degradation ladder taken from `bopts`).
  /// `misr_detect` tells which faults the signature actually catches (the
  /// coverage minus aliasing losses).
  [[nodiscard]] FaultSimResult signatureCoverage(
      int m, std::span<const Fault> faults, int cycles,
      const FsimBackendOptions& bopts) const;

 private:
  struct Hookup {
    // Owned copy: hookups must outlive any caller-provided reference.
    std::unique_ptr<Netlist> nl;
    std::vector<InputSource> map;
    std::vector<std::shared_ptr<ConstraintGenerator>> cgs;
    int free_inputs = 0;  // inputs driven by the ALFSR
  };

  BistEngineConfig cfg_;
  std::vector<int> taps_;
  std::vector<Hookup> modules_;
};

/// Mutate one gate of a netlist copy into a different function — a cheap
/// "manufacturing defect" injector for end-to-end signature tests.
[[nodiscard]] Netlist withGateDefect(const Netlist& nl, GateId gate,
                                     GateType new_type);

}  // namespace corebist

#endif  // COREBIST_BIST_ENGINE_HPP_
