// Gate primitives for the structural netlist substrate.
//
// Every combinational primitive is at most 3-input (MUX2); wider functions
// are composed by the word-level Builder. Word-parallel evaluation packs 64
// independent simulation contexts into one std::uint64_t, which is the basis
// of both the logic simulator and the parallel fault simulator.
#ifndef COREBIST_NETLIST_GATE_HPP_
#define COREBIST_NETLIST_GATE_HPP_

#include <array>
#include <cstdint>
#include <string_view>
#include <type_traits>

namespace corebist {

/// Identifier of a net (a wire). Nets are dense indices into per-net arrays.
using NetId = std::uint32_t;

/// Sentinel for "no net" (e.g. an unbound flip-flop input during build).
inline constexpr NetId kNullNet = 0xFFFF'FFFFu;

/// Identifier of a gate inside a Netlist.
using GateId = std::uint32_t;

/// Combinational primitive types. kConst0/kConst1 have no inputs; kBuf/kNot
/// have one; kMux2 has three (a, b, sel) computing `sel ? b : a`; the rest
/// are 2-input.
enum class GateType : std::uint8_t {
  kConst0,
  kConst1,
  kBuf,
  kNot,
  kAnd,
  kNand,
  kOr,
  kNor,
  kXor,
  kXnor,
  kMux2,
};

/// Number of gate types (for tables indexed by GateType).
inline constexpr int kNumGateTypes = 11;

/// Number of input pins for a gate type.
[[nodiscard]] constexpr int gateArity(GateType t) noexcept {
  switch (t) {
    case GateType::kConst0:
    case GateType::kConst1:
      return 0;
    case GateType::kBuf:
    case GateType::kNot:
      return 1;
    case GateType::kMux2:
      return 3;
    default:
      return 2;
  }
}

/// Human-readable mnemonic (e.g. "NAND2").
[[nodiscard]] std::string_view gateName(GateType t) noexcept;

/// Evaluate one gate over a word of parallel contexts: one std::uint64_t
/// (64 contexts) or any bitwise word type with value-initialized zero, such
/// as the fault kernels' LaneWord<W>. Unused inputs are ignored. For kMux2,
/// (a, b, s) computes (a & ~s) | (b & s). Word is deduced from `a` alone, so
/// literal operands convert to it.
template <class Word>
[[nodiscard]] constexpr Word evalGateWord(
    GateType t, const Word& a, const std::type_identity_t<Word>& b,
    const std::type_identity_t<Word>& s) noexcept {
  switch (t) {
    case GateType::kConst0:
      return Word{};
    case GateType::kConst1:
      return ~Word{};
    case GateType::kBuf:
      return a;
    case GateType::kNot:
      return ~a;
    case GateType::kAnd:
      return a & b;
    case GateType::kNand:
      return ~(a & b);
    case GateType::kOr:
      return a | b;
    case GateType::kNor:
      return ~(a | b);
    case GateType::kXor:
      return a ^ b;
    case GateType::kXnor:
      return ~(a ^ b);
    case GateType::kMux2:
      return (a & ~s) | (b & s);
  }
  return Word{};
}

/// A structural gate instance: fixed-capacity fanin array plus output net.
struct Gate {
  GateType type = GateType::kBuf;
  std::uint8_t nin = 0;
  NetId out = kNullNet;
  std::array<NetId, 3> in{kNullNet, kNullNet, kNullNet};
};

}  // namespace corebist

#endif  // COREBIST_NETLIST_GATE_HPP_
