// A netlist's combinational logic compiled once for word-parallel evaluation.
//
// The constructor levelizes the netlist and counting-sorts its gates by
// (level, type), so every level is a few contiguous runs of one gate type
// over flat {out, a, b, s} operand tuples. eval() walks each level's runs
// with the gate type a compile-time constant per run: no per-gate type
// switch and no fan-in branch. Unused operands point at a valid net, so
// every run loads all three operands and the dead loads fold away.
//
// A gate of level l reads only nets driven at levels below l, so the order
// of gates inside a level is free, and a value patched once level l is
// complete is seen by every reader of it. The sequential fault kernel injects
// its faults through that after-level hook.
//
// One program serves any word type evalGateWord accepts: std::uint64_t for
// the logic simulator and the sequential kernel, LaneWord<W> for the
// combinational fault kernel. Engines build it once and share it with their
// clones; it borrows the netlist, which must outlive it.
#ifndef COREBIST_SIM_GATE_PROGRAM_HPP_
#define COREBIST_SIM_GATE_PROGRAM_HPP_

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "netlist/netlist.hpp"

namespace corebist {

class GateProgram {
 public:
  /// Compile `nl`. Throws std::logic_error on a combinational loop.
  explicit GateProgram(const Netlist& nl);

  /// Number of logic levels (0 for a netlist without gates).
  [[nodiscard]] int levels() const noexcept {
    return static_cast<int>(run_start_.size() / kNumGateTypes);
  }
  /// Logic level of gate `g`.
  [[nodiscard]] int level(GateId g) const noexcept { return gate_level_[g]; }
  /// Level of the gate driving net `n`, or -1 for a source net (primary
  /// input, flip-flop output or undriven net).
  [[nodiscard]] int driverLevel(NetId n) const;

  /// Evaluate every gate on the per-net words `v` (indexed by NetId).
  template <class Word>
  void eval(std::vector<Word>& v) const {
    eval(v, [](int) {});
  }

  /// As eval(v), calling `after_level(l)` once every gate of level l has
  /// been evaluated and before any gate of level l + 1.
  template <class Word, class AfterLevel>
  void eval(std::vector<Word>& v, AfterLevel&& after_level) const {
    assert(v.size() >= nl_->numNets());
    const int n = levels();
    for (int l = 0; l < n; ++l) {
      evalLevel(v.data(), run_start_.data() + l * kNumGateTypes,
                std::make_integer_sequence<int, kNumGateTypes>{});
      after_level(l);
    }
  }

 private:
  struct Op {
    NetId out;
    NetId a;
    NetId b;
    NetId s;
  };

  /// One run per gate type, in GateType order; `start` holds the level's
  /// kNumGateTypes + 1 run boundaries.
  template <class Word, int... T>
  void evalLevel(Word* v, const std::uint32_t* start,
                 std::integer_sequence<int, T...>) const noexcept {
    (evalRun<static_cast<GateType>(T)>(ops_.data() + start[T],
                                       ops_.data() + start[T + 1], v),
     ...);
  }

  template <GateType T, class Word>
  static void evalRun(const Op* op, const Op* end, Word* v) noexcept {
    for (; op != end; ++op) {
      v[op->out] = evalGateWord(T, v[op->a], v[op->b], v[op->s]);
    }
  }

  const Netlist* nl_;
  std::vector<Op> ops_;  // gates sorted by (level, type)
  /// The gates of level l and type t are ops_[run_start_[k],
  /// run_start_[k + 1]) with k = l * kNumGateTypes + t.
  std::vector<std::uint32_t> run_start_;
  std::vector<int> gate_level_;  // by GateId
};

}  // namespace corebist

#endif  // COREBIST_SIM_GATE_PROGRAM_HPP_
