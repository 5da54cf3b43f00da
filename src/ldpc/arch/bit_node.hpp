// BIT_NODE of the Reconfigurable Serial LDPC decoder (paper §4, Table 1:
// 54 input bits, 55 output bits).
//
// Serial variable-node processor: during the accumulate phase one
// check-to-bit message arrives per clock and is added (saturating) to the
// node total seeded with the channel LLR; during the output phase the
// extrinsic message total - msg[e] is emitted per edge. A 4-entry message
// buffer holds the incoming messages of the virtual node being processed;
// all four extrinsic subtractions run in parallel lanes (the building block
// of the fully-parallel configuration of [15]) and the active edge's lane is
// selected on output. The 4-bit path_sel port is the constrained input of
// the case study: bits [1:0] select the active message width (8/6/4/3) and
// bits [3:2] the magnitude scaling (x1, x0.75, x0.5, 0).
//
// This behavioural model is the bit-exact specification mirrored by the
// gate-level generator in ldpc/gatelevel/bn_gate.cpp; the equivalence is
// enforced by randomized sweeps in tests/ldpc_equiv_test.cpp.
#ifndef COREBIST_LDPC_ARCH_BIT_NODE_HPP_
#define COREBIST_LDPC_ARCH_BIT_NODE_HPP_

#include <array>
#include <cstdint>

#include "eval/coverage.hpp"

namespace corebist::ldpc {

/// Port geometry (paper Table 1).
inline constexpr int kBitNodeInputBits = 54;
inline constexpr int kBitNodeOutputBits = 55;

/// ctrl bit positions.
struct BnCtrl {
  static constexpr unsigned kStart = 1u << 0;
  static constexpr unsigned kAccEn = 1u << 1;
  static constexpr unsigned kOutEn = 1u << 2;
  static constexpr unsigned kLoadLlr = 1u << 3;
  static constexpr unsigned kFlush = 1u << 4;
  static constexpr unsigned kMode0 = 1u << 5;
  static constexpr unsigned kMode1 = 1u << 6;
  static constexpr unsigned kSgnForce = 1u << 7;
  static constexpr unsigned kIterFirst = 1u << 8;
  static constexpr unsigned kIterLast = 1u << 9;
  static constexpr unsigned kValidIn = 1u << 10;
  static constexpr unsigned kSoftEn = 1u << 11;
};

struct BitNodeIn {
  int cn_msg = 0;             // signed 8-bit check-to-bit message
  int ch_llr = 0;             // signed 8-bit channel LLR
  unsigned edge_idx = 0;      // 6 bits
  unsigned degree = 0;        // 6 bits
  unsigned path_sel = 0;      // 4 bits (constrained port)
  unsigned vnode_id = 0;      // 10 bits
  unsigned ctrl = 0;          // 12 bits (BnCtrl flags)
};

struct BitNodeOut {
  int bn_msg = 0;         // signed 8-bit extrinsic message
  unsigned hard_bit = 0;  // 1 bit
  int soft_out = 0;       // signed 12-bit total
  unsigned out_edge = 0;  // 6 bits
  unsigned out_vnode = 0;  // 10 bits
  unsigned state_dbg = 0;  // 10 bits
  unsigned flags = 0;      // 5 bits: {sat,msg_zero,last_edge,acc_sign,lane_par}
  unsigned valid_out = 0;  // 1 bit
  unsigned ready = 0;      // 1 bit
  unsigned parity_out = 0;  // 1 bit
};

class BitNodeModel {
 public:
  /// Number of statement probes (for StatementCoverage sizing).
  static constexpr int kNumStatements = 20;

  explicit BitNodeModel(StatementCoverage* cov = nullptr) : cov_(cov) {}

  void reset();

  /// Combinational outputs for the current state and inputs.
  [[nodiscard]] BitNodeOut eval(const BitNodeIn& in) const;

  /// Clock edge: advance the architectural state.
  void tick(const BitNodeIn& in);

  // -- Shared datapath semantics (also used by the gate-level generator's
  //    reference vectors and the functional decoder) --------------------
  /// Width-mode clamp of a signed 8-bit value per path_sel[1:0].
  [[nodiscard]] static int applyWidthMode(int v, unsigned sel);
  /// Magnitude scaling of a signed 8-bit value per path_sel[3:2].
  [[nodiscard]] static int applyScale(int v, unsigned sel);

  // Architectural state (public for the equivalence harness).
  struct State {
    int acc = 0;                       // 12-bit signed accumulator
    int llr_reg = 0;                   // 8-bit
    std::array<int, 4> msg_buf{};      // 4 x 8-bit stored messages
    int out_msg = 0;                   // 8-bit output register
    unsigned out_valid = 0;
    unsigned edge_echo = 0;   // 6 bits
    unsigned vnode_echo = 0;  // 10 bits
    unsigned flags = 0;       // 5 bits, sticky until start
    unsigned parity = 0;      // 1 bit
  };
  [[nodiscard]] const State& state() const noexcept { return st_; }

 private:
  void probe(int id) const {
    if (cov_ != nullptr) cov_->hit(id);
  }
  State st_;
  StatementCoverage* cov_;
};

/// Pack/unpack between the structured view and the flat 54/55-bit ports
/// (bit order matches the gate-level module's port registration order:
/// cn_msg, ch_llr, edge_idx, degree, path_sel, vnode_id, ctrl — LSB first).
[[nodiscard]] std::uint64_t packBitNodeIn(const BitNodeIn& in);
[[nodiscard]] BitNodeIn unpackBitNodeIn(std::uint64_t bits);
[[nodiscard]] std::uint64_t packBitNodeOut(const BitNodeOut& out);

}  // namespace corebist::ldpc

#endif  // COREBIST_LDPC_ARCH_BIT_NODE_HPP_
