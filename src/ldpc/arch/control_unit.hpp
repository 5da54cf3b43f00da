// CONTROL_UNIT of the Reconfigurable Serial LDPC decoder (paper §4,
// Table 1: 45 input bits, 44 output bits).
//
// Manages the two interleaving memories and the reconfiguration information:
// an edge counter walks the graph edges, sequential addresses feed memory A
// while a stride accumulator (modulo the configured code length) generates
// the interleaved addresses for memory B; a two-bit phase FSM alternates
// check-node and bit-node passes; an iteration counter terminates decoding.
// Bit-exact spec for ldpc/gatelevel/cu_gate.cpp.
#ifndef COREBIST_LDPC_ARCH_CONTROL_UNIT_HPP_
#define COREBIST_LDPC_ARCH_CONTROL_UNIT_HPP_

#include <cstdint>

#include "eval/coverage.hpp"

namespace corebist::ldpc {

inline constexpr int kControlUnitInputBits = 45;
inline constexpr int kControlUnitOutputBits = 44;

struct ControlUnitIn {
  unsigned cfg_nbits = 0;       // 10 bits: code length (up to 1024 bit nodes)
  unsigned cfg_mrows = 0;       // 9 bits: check rows (up to 512)
  unsigned cfg_iters = 0;       // 5 bits: decoding iterations
  unsigned mode = 0;            // 3 bits: [1:0] stride select, [2] free-run
  unsigned start = 0;           // 1
  unsigned halt = 0;            // 1
  unsigned ext_parity_fail = 0;  // 1 (early-stop input from the check nodes)
  unsigned mem_ready = 0;       // 1
  unsigned edge_count = 0;      // 10 bits: edges per phase
  unsigned step_en = 0;         // 1
  unsigned clr_stats = 0;       // 1
  unsigned dbg_sel = 0;         // 2 bits
};

struct ControlUnitOut {
  unsigned mem_addr_a = 0;  // 10 (sequential)
  unsigned mem_addr_b = 0;  // 10 (interleaved)
  unsigned we_a = 0;        // 1
  unsigned we_b = 0;        // 1
  unsigned node_sel = 0;    // 7 (virtual node being processed)
  unsigned phase = 0;       // 2 (0 idle, 1 CN pass, 2 BN pass, 3 iter check)
  unsigned iter_cnt = 0;    // 5
  unsigned busy = 0;        // 1
  unsigned done = 0;        // 1
  unsigned stat_flag = 0;   // 6
};

class ControlUnitModel {
 public:
  static constexpr int kNumStatements = 19;

  explicit ControlUnitModel(StatementCoverage* cov = nullptr) : cov_(cov) {}

  void reset();
  [[nodiscard]] ControlUnitOut eval(const ControlUnitIn& in) const;
  void tick(const ControlUnitIn& in);

  /// Interleaver stride for a mode selection (must match the gate level).
  [[nodiscard]] static unsigned strideFor(unsigned mode2) {
    static constexpr unsigned kStride[4] = {1u, 3u, 7u, 11u};
    return kStride[mode2 & 3u];
  }

  struct State {
    unsigned edge_cnt = 0;   // 10
    unsigned node_cnt = 0;   // 7
    unsigned iter_cnt = 0;   // 5
    unsigned phase = 0;      // 2
    unsigned addr_b = 0;     // 10 (stride accumulator)
    unsigned busy = 0;       // 1
    unsigned done = 0;       // 1
    unsigned stats = 0;      // 6, sticky
  };

 private:
  void probe(int id) const {
    if (cov_ != nullptr) cov_->hit(id);
  }
  State st_;
  StatementCoverage* cov_;
};

[[nodiscard]] std::uint64_t packControlUnitIn(const ControlUnitIn& in);
[[nodiscard]] ControlUnitIn unpackControlUnitIn(std::uint64_t bits);
[[nodiscard]] std::uint64_t packControlUnitOut(const ControlUnitOut& out);

}  // namespace corebist::ldpc

#endif  // COREBIST_LDPC_ARCH_CONTROL_UNIT_HPP_
