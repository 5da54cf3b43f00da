// Multiple-Input Signature Register with XOR-cascade input folding
// (paper §3.1, Result Collector).
//
// Each module under test gets one MISR; module output ports wider than the
// MISR are folded through an XOR cascade (output i feeds tap i mod width),
// exactly as the paper does for its 55/53/44-bit ports into 16-bit MISRs.
// The software model, the bit-sliced model inside the sequential fault
// simulator (fault/seq_fsim.hpp) and the structural hardware generator all
// implement the same recurrence:
//   S'[j] = S[j-1] ^ (poly[j] & S[w-1]) ^ in[j]     (S[-1] = 0)
#ifndef COREBIST_BIST_MISR_HPP_
#define COREBIST_BIST_MISR_HPP_

#include <cstdint>
#include <vector>

#include "fault/fault_sim.hpp"
#include "netlist/builder.hpp"

namespace corebist {

/// Coefficient mask (bits 0..w-1) of a primitive polynomial for a MISR of
/// width `w` (bit 0 is always set). Throws std::invalid_argument unless
/// `w` is in [3, 32] (primitiveTaps).
[[nodiscard]] std::uint64_t misrPolyMask(int width);

class Misr {
 public:
  /// A `width`-bit MISR on misrPolyMask(width), which validates the width
  /// before the register mask is built.
  explicit Misr(int width);

  [[nodiscard]] std::uint64_t state() const noexcept { return state_; }

  /// Clock one symbol (already folded to `width` bits) into the register.
  void step(std::uint64_t input);

  /// Fold an arbitrary-width response word through the XOR cascade and
  /// clock it in.
  void stepWide(std::uint64_t response, int response_width);

 private:
  int width_;
  std::uint64_t poly_;
  std::uint64_t mask_;
  std::uint64_t state_ = 0;
};

/// XOR-cascade fold map: tap j receives nets {outputs[i] : i mod width == j}.
[[nodiscard]] std::vector<std::vector<NetId>> foldFeeds(
    const std::vector<NetId>& outputs, int width);

/// Build a MisrSpec (for the sequential fault simulator) observing `outputs`.
[[nodiscard]] MisrSpec makeMisrSpec(const std::vector<NetId>& outputs,
                                    int width);

/// Structural MISR: `inputs` are the (unfolded) response nets; `en` gates
/// accumulation, `clear` zeroes the register. Returns the signature bus.
struct MisrHw {
  Bus state;
};
[[nodiscard]] MisrHw buildMisrHw(Builder& b, const std::vector<NetId>& inputs,
                                 int width, NetId en, NetId clear);

}  // namespace corebist

#endif  // COREBIST_BIST_MISR_HPP_
