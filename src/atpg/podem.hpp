// PODEM combinational ATPG (full-scan baseline of Table 3).
//
// Classic PODEM: objectives are solved by backtracing to an unassigned
// primary input of the combinational view, implications run in two
// three-valued planes (good machine / faulty machine), the D-frontier is
// maintained from the set of divergent nets, and a bounded backtrack stack
// explores input assignments. Faults that exhaust the backtrack budget are
// counted as aborted — exactly how the commercial tool the paper used
// reports its sub-100% full-scan coverage.
#ifndef COREBIST_ATPG_PODEM_HPP_
#define COREBIST_ATPG_PODEM_HPP_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "analyze/scoap.hpp"
#include "fault/fault.hpp"
#include "netlist/levelize.hpp"
#include "netlist/netlist.hpp"

namespace corebist {

/// Three-valued logic constant.
enum class Tv : std::uint8_t { k0 = 0, k1 = 1, kX = 2 };

class Podem {
 public:
  Podem(const Netlist& nl, std::span<const NetId> inputs,
        std::span<const NetId> observed, int backtrack_limit = 24);

  /// Try to generate a test for `f` (stuck-at only). Returns one value per
  /// input (Tv::kX = don't care) or nullopt on abort/untestable.
  [[nodiscard]] std::optional<std::vector<Tv>> generate(const Fault& f);

  [[nodiscard]] std::size_t backtracksUsed() const noexcept {
    return backtracks_;
  }

  /// True when the last generate() returned nullopt because a search budget
  /// (backtrack limit or iteration guard) ran out — i.e. nothing was
  /// *proven*. False after a nullopt means the complete search space was
  /// exhausted: the fault is untestable, and so is every fault with the
  /// same faulty function (the distinction equivalence-collapsed targeting
  /// relies on).
  [[nodiscard]] bool lastAborted() const noexcept { return aborted_; }

  /// Install SCOAP scores as the objective-ordering heuristic: the
  /// D-frontier advances through the most observable gate (min CO) and
  /// backtrace picks the easiest input when any suffices / the hardest when
  /// all are needed. Purely an ordering hint — with `scores == nullptr`
  /// (the default) the search is bit-identical to the unguided baseline,
  /// and either way the set of testable faults is unchanged; only the
  /// decision order (and therefore the backtrack count) moves. The caller
  /// keeps `scores` alive for the Podem's lifetime; scores must be computed
  /// with the same observed set.
  void setScoap(const ScoapScores* scores) noexcept { scoap_ = scores; }

 private:
  struct Decision {
    int input_index;
    bool tried_both;
  };

  void implyAll();
  [[nodiscard]] bool faultDetectedAtOutput() const;
  /// Find (input, value) for the current objective; false if none exists.
  [[nodiscard]] bool backtrace(NetId obj_net, Tv obj_val, int& input_index,
                               Tv& value) const;
  [[nodiscard]] bool pickObjective(NetId& net, Tv& val) const;

  const Netlist& nl_;
  Levelization lev_;
  std::vector<NetId> inputs_;
  std::vector<NetId> observed_;
  std::vector<char> observed_flag_;
  std::vector<int> input_of_net_;  // net -> input index or -1
  int backtrack_limit_;
  std::size_t backtracks_ = 0;
  bool aborted_ = false;
  const ScoapScores* scoap_ = nullptr;  // optional ordering heuristic

  // Current fault.
  Fault fault_{};
  // Per-net 3-valued planes.
  std::vector<Tv> gval_;
  std::vector<Tv> fval_;
  std::vector<Tv> assignment_;  // per input
};

}  // namespace corebist

#endif  // COREBIST_ATPG_PODEM_HPP_
