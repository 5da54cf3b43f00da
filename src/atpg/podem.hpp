// PODEM combinational ATPG (full-scan baseline of Table 3).
//
// Classic PODEM: objectives are solved by backtracing to an unassigned
// primary input of the combinational view, and a bounded backtrack stack
// explores input assignments. Faults that exhaust the backtrack budget are
// counted as aborted — exactly how the commercial tool the paper used
// reports its sub-100% full-scan coverage.
//
// Implication is event-driven over two three-valued planes (good machine /
// faulty machine). The constructor evaluates the fault-free all-X plane
// once, and every generate() starts from a copy of it. One routine serves
// fault injection, decisions, backtrack flips and inputs set back to X: it
// writes a net in both planes and re-evaluates, level by level, only the
// gates whose inputs changed (level buckets over the netlist's ReaderCsr
// fanout, the shape of CombFaultSimT::propagate). Since a gate's output is
// a pure function of its inputs, the planes after each step are exactly
// those a full re-simulation would give, so no undo trail is kept.
//
// Every net write also updates a divergence bitset: the nets whose good and
// faulty values are both known and differ. The D-frontier is read from its
// set bits in ascending net order, and detection is its intersection with
// the observed nets.
#ifndef COREBIST_ATPG_PODEM_HPP_
#define COREBIST_ATPG_PODEM_HPP_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "analyze/scoap.hpp"
#include "fault/fault.hpp"
#include "netlist/netlist.hpp"

namespace corebist {

/// Three-valued logic constant.
enum class Tv : std::uint8_t { k0 = 0, k1 = 1, kX = 2 };

class Podem {
 public:
  /// `inputs` are the controllable nets of the view (undriven: PIs and
  /// pseudo-PIs), `observed` the observable ones.
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
  /// *proven*. False after a nullopt means the search ran out of decisions
  /// to flip and called the fault untestable. That verdict is unsound for
  /// branch faults: their effect sits on the faulted gate's input pin, which
  /// the divergent-net D-frontier does not see until the gate's output
  /// diverges, so the search can dead-end on a testable branch fault.
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

  /// Set input `i` to `v` in both planes (the faulty plane keeps a stem
  /// fault's forced value); the change is implied by the next imply().
  void assign(int i, Tv v);
  /// Write net `n`'s two values; on a change, update the divergence bit and
  /// queue the readers.
  void write(NetId n, Tv good, Tv faulty);
  void enqueue(GateId g);
  void evaluate(GateId g);
  /// Evaluate queued gates in level order until nothing is queued.
  void imply();
  [[nodiscard]] bool divergent(NetId n) const noexcept {
    return ((divergent_[n >> 6] >> (n & 63)) & 1u) != 0;
  }
  /// The first divergent net at or after `from`, or kNullNet.
  [[nodiscard]] NetId nextDivergent(NetId from) const;
  [[nodiscard]] bool faultDetectedAtOutput() const;
  /// Find (input, value) for the current objective; false if none exists.
  [[nodiscard]] bool backtrace(NetId obj_net, Tv obj_val, int& input_index,
                               Tv& value) const;
  [[nodiscard]] bool pickObjective(NetId& net, Tv& val) const;

  const Netlist& nl_;
  const ReaderCsr& readers_;
  std::vector<int> level_;  // per gate
  std::vector<NetId> inputs_;
  std::vector<int> input_of_net_;  // net -> input index or -1
  std::vector<std::uint64_t> observed_;  // per-net bitset
  int backtrack_limit_;
  std::size_t backtracks_ = 0;
  bool aborted_ = false;
  const ScoapScores* scoap_ = nullptr;  // optional ordering heuristic

  // Current fault (fault_.gate is kNoGate for a stem), its stuck value and
  // the net whose faulty value it forces (kNullNet for a branch fault).
  Fault fault_{};
  Tv forced_ = Tv::k0;
  NetId stem_net_ = kNullNet;

  // Per-net 3-valued planes and the divergence bitset.
  std::vector<Tv> all_x_;  // fault-free plane with every input X
  std::vector<Tv> gval_;
  std::vector<Tv> fval_;
  std::vector<std::uint64_t> divergent_;
  std::vector<Tv> assignment_;  // per input

  // Event queue: gates bucketed by level, each queued at most once.
  std::vector<std::vector<GateId>> buckets_;
  std::vector<char> queued_;
  std::size_t pending_ = 0;
  int min_level_ = 0;
};

}  // namespace corebist

#endif  // COREBIST_ATPG_PODEM_HPP_
