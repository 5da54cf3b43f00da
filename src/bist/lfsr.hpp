// Autonomous LFSR (ALFSR) pseudo-random pattern generator (paper §3.1).
//
// Fibonacci configuration: the register shifts left one bit per clock and
// the incoming bit is the XOR of the feedback taps given by a primitive
// characteristic polynomial, so a nonzero seed walks through all 2^w - 1
// nonzero states. Both a cycle-exact software model and a structural
// hardware generator (for area/timing accounting) are provided; they match
// bit for bit, which the tests verify.
#ifndef COREBIST_BIST_LFSR_HPP_
#define COREBIST_BIST_LFSR_HPP_

#include <cstdint>
#include <vector>

#include "netlist/builder.hpp"

namespace corebist {

/// Feedback tap positions (bit indices into the state register) of a known
/// primitive polynomial for widths 3..32. Throws for unsupported widths.
[[nodiscard]] std::vector<int> primitiveTaps(int width);

class Alfsr {
 public:
  /// Uses the built-in primitive polynomial for `width`.
  explicit Alfsr(int width, std::uint64_t seed = 1);
  /// Custom feedback taps (bit positions, each in [0, width)).
  Alfsr(int width, std::vector<int> taps, std::uint64_t seed);

  [[nodiscard]] std::uint64_t state() const noexcept { return state_; }

  /// Advance one clock; returns the new state.
  std::uint64_t step();

  /// Pattern presented to the DUT this cycle (the parallel register output).
  [[nodiscard]] std::uint64_t output() const noexcept { return state_; }

  /// Sequence length before the state repeats (2^w - 1 for primitive taps).
  [[nodiscard]] std::uint64_t measuredPeriod(std::uint64_t limit);

 private:
  std::uint64_t mask_;
  std::vector<int> taps_;
  std::uint64_t state_;
};

/// Structural ALFSR: shift register + XOR feedback tree with seed-load mux.
/// Inputs: `en` (shift enable), `load` (synchronous load of `seed`).
/// Returns the state bus (Q side).
struct AlfsrHw {
  Bus state;
};
[[nodiscard]] AlfsrHw buildAlfsrHw(Builder& b, int width,
                                   const std::vector<int>& taps,
                                   std::uint64_t seed, NetId en, NetId load);

}  // namespace corebist

#endif  // COREBIST_BIST_LFSR_HPP_
