// Structural fault model: single stuck-at and transition-delay faults.
//
// Fault sites follow the standard stem/branch convention:
//  * a STEM fault sits on a net and is seen by every reader of that net;
//  * a BRANCH fault sits on one (gate, pin) and is seen only by that pin.
// Branch sites are enumerated only where the net has fanout > 1 (with
// fanout 1 the branch is indistinguishable from the stem).
//
// Transition-delay faults (slow-to-rise / slow-to-fall) reuse the same site
// list, mirroring the paper's Table 3 where SAF and TDF universes have the
// same cardinality per module.
#ifndef COREBIST_FAULT_FAULT_HPP_
#define COREBIST_FAULT_FAULT_HPP_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"

namespace corebist {

enum class FaultKind : std::uint8_t {
  kSa0,       // stuck-at-0
  kSa1,       // stuck-at-1
  kSlowRise,  // transition-delay: rising edge arrives one cycle late
  kSlowFall,  // transition-delay: falling edge arrives one cycle late
};

[[nodiscard]] constexpr bool isStuckAt(FaultKind k) noexcept {
  return k == FaultKind::kSa0 || k == FaultKind::kSa1;
}

struct Fault {
  NetId net = kNullNet;   // site net (the stem, or the net read by the pin)
  GateId gate = kNoGate;  // kNoGate => stem fault
  std::uint8_t pin = 0;   // valid when gate != kNoGate
  FaultKind kind = FaultKind::kSa0;

  static constexpr GateId kNoGate = 0xFFFF'FFFFu;
  [[nodiscard]] bool isStem() const noexcept { return gate == kNoGate; }
  [[nodiscard]] bool operator==(const Fault&) const = default;
};

/// Pretty "net@gate.pin s-a-v" string for reports.
[[nodiscard]] std::string describeFault(const Netlist& nl, const Fault& f);

struct FaultUniverse {
  std::vector<Fault> faults;       // collapsed representatives
  std::size_t uncollapsed = 0;     // full structural universe size
  std::size_t collapsed_away = 0;  // faults merged by equivalence
};

/// Enumerate the stuck-at universe of `nl` and (optionally) collapse it with
/// classic intra-gate equivalences (AND in-sa0 == out-sa0, NOT polarity
/// swap, BUF identity, and their NAND/OR/NOR duals). Nets driven by constant
/// generators are excluded.
[[nodiscard]] FaultUniverse enumerateStuckAt(const Netlist& nl,
                                             bool collapse = true);

/// Map a stuck-at list onto transition-delay faults at the same sites
/// (sa0 -> slow-to-rise, sa1 -> slow-to-fall).
[[nodiscard]] std::vector<Fault> toTransitionFaults(
    const std::vector<Fault>& stuck);

/// Throws std::invalid_argument, prefixed with `engine`, when a fault's
/// kind is none of the four FaultKind enumerators (a byte off the fork
/// wire, say). The engines call it before they grade anything.
void checkFaultKinds(std::span<const Fault> faults, const char* engine);

}  // namespace corebist

#endif  // COREBIST_FAULT_FAULT_HPP_
