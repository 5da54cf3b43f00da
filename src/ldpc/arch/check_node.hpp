// CHECK_NODE of the Reconfigurable Serial LDPC decoder (paper §4, Table 1:
// 53 input bits, 53 output bits).
//
// Serial min-sum check-node processor with a 64-entry magnitude/sign buffer
// (one physical node emulates many virtual check nodes, so a full row of
// messages is buffered). Three phases:
//   load    - one bit-to-check message per clock is split into magnitude and
//             sign and written to the buffer; the sign product accumulates;
//   compute - two window lanes read the buffer through rotation crossbars
//             into a free-running window pipeline register; (min1, min2,
//             argmin) tournament-merge networks fold the REGISTERED window
//             (i.e. the window pointed to one cycle earlier) into the
//             running minimum registers;
//   out     - per edge, the extrinsic magnitude (min2 if the edge is the
//             argmin, else min1) is offset/normalization corrected, scaled
//             by the constrained path_sel port, re-signed and emitted.
//
// The window crossbars + tournament networks are the dominant logic mass,
// which is why CHECK_NODE carries an order of magnitude more faults than
// the other two modules (paper Table 3: 86k vs 7.5k/3k); the window
// pipeline register brings the flop count to the paper's ~800 and keeps the
// clock frequency in the hundreds of MHz. Bit-exact spec for
// ldpc/gatelevel/cn_gate.cpp.
#ifndef COREBIST_LDPC_ARCH_CHECK_NODE_HPP_
#define COREBIST_LDPC_ARCH_CHECK_NODE_HPP_

#include <array>
#include <cstdint>

#include "eval/coverage.hpp"

namespace corebist::ldpc {

inline constexpr int kCheckNodeInputBits = 53;
inline constexpr int kCheckNodeOutputBits = 53;
inline constexpr int kCnBufSize = 64;
inline constexpr int kCnWindow = 10;
inline constexpr int kCnLanes = 2;

/// One (min1, min2, argmin) triple flowing through the tournament networks.
struct CnMinTriple {
  unsigned m1 = 0xFF;
  unsigned m2 = 0xFF;
  unsigned idx = 0;
};

/// Tournament merge of two triples; ties keep the left operand (this exact
/// pairing order is replicated by the structural network).
[[nodiscard]] CnMinTriple cnMerge2(const CnMinTriple& x, const CnMinTriple& y);

/// Fold a whole window (leaf order) through the pairwise tournament.
[[nodiscard]] CnMinTriple cnTournament(const CnMinTriple* leaves, int count);

struct CnCtrl {
  static constexpr unsigned kStart = 1u << 0;
  static constexpr unsigned kLoad = 1u << 1;
  static constexpr unsigned kCompute = 1u << 2;
  static constexpr unsigned kOutEn = 1u << 3;
  static constexpr unsigned kFlush = 1u << 4;
  static constexpr unsigned kUseOffset = 1u << 5;
  static constexpr unsigned kUseNorm = 1u << 6;
  static constexpr unsigned kClrParity = 1u << 7;
  static constexpr unsigned kValidIn = 1u << 8;
  static constexpr unsigned kLast = 1u << 9;
  static constexpr unsigned kWinHi = 1u << 10;
  static constexpr unsigned kDbg = 1u << 11;
};

struct CheckNodeIn {
  int bn_msg = 0;          // signed 8-bit bit-to-check message
  unsigned edge_idx = 0;   // 6 bits (buffer address / window base)
  unsigned row_deg = 0;    // 6 bits
  unsigned path_sel = 0;   // 4 bits (constrained port)
  unsigned cnode_id = 0;   // 9 bits (up to 512 virtual check nodes)
  unsigned offset = 0;     // 8 bits (offset-min-sum correction, loaded at start)
  unsigned ctrl = 0;       // 12 bits
};

struct CheckNodeOut {
  int cn_msg = 0;           // signed 8-bit check-to-bit message
  unsigned out_edge = 0;    // 6
  unsigned out_cnode = 0;   // 9
  unsigned parity_ok = 0;   // 1
  unsigned min1_dbg = 0;    // 8
  unsigned min2_dbg = 0;    // 8
  unsigned sign_dbg = 0;    // 1
  unsigned argmin_dbg = 0;  // 6
  unsigned flags = 0;       // 4: {tie, last_edge, offset_uflow, sat_mag}
  unsigned valid_out = 0;   // 1
  unsigned ready = 0;       // 1
};

class CheckNodeModel {
 public:
  static constexpr int kNumStatements = 19;

  explicit CheckNodeModel(StatementCoverage* cov = nullptr) : cov_(cov) {}

  void reset();
  [[nodiscard]] CheckNodeOut eval(const CheckNodeIn& in) const;
  void tick(const CheckNodeIn& in);

  /// Unsigned magnitude clamp per path_sel[1:0] (127/31/7/3 ranges).
  [[nodiscard]] static unsigned widthClampMag(unsigned mag, unsigned sel);
  /// Unsigned magnitude scaling per path_sel[3:2] (x1, x0.75, x0.5, 0).
  [[nodiscard]] static unsigned scaleMag(unsigned mag, unsigned sel);

  struct State {
    std::array<unsigned, kCnBufSize> mag_buf{};   // 8-bit magnitudes
    std::array<unsigned, kCnBufSize> sign_buf{};  // 1-bit signs
    // Free-running window pipeline: values + base pointer per lane.
    std::array<std::array<unsigned, kCnWindow>, kCnLanes> win_val{};
    std::array<unsigned, kCnLanes> win_base{};
    // All registers reset to zero (matching the DFF reset state); the 0xFF
    // min sentinels are loaded by the start command, not by reset.
    unsigned min1 = 0;
    unsigned min2 = 0;
    unsigned argmin = 0;   // 6 bits
    unsigned sign_prod = 0;
    unsigned offset_reg = 0;  // 7 bits used
    int out_msg = 0;
    unsigned out_valid = 0;
    unsigned edge_echo = 0;   // 6
    unsigned cnode_echo = 0;  // 9
    unsigned flags = 0;       // 4, sticky until start
  };
  [[nodiscard]] const State& state() const noexcept { return st_; }

 private:
  void probe(int id) const {
    if (cov_ != nullptr) cov_->hit(id);
  }
  State st_;
  StatementCoverage* cov_;
};

[[nodiscard]] std::uint64_t packCheckNodeIn(const CheckNodeIn& in);
[[nodiscard]] CheckNodeIn unpackCheckNodeIn(std::uint64_t bits);
[[nodiscard]] std::uint64_t packCheckNodeOut(const CheckNodeOut& out);

}  // namespace corebist::ldpc

#endif  // COREBIST_LDPC_ARCH_CHECK_NODE_HPP_
