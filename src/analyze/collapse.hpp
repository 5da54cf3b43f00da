// Static fault collapsing: equivalence classes over the structural
// stuck-at universe, computed before any simulation.
//
// Two faults are *equivalent* when every pattern produces the same faulty
// response at every observation point — grading one member grades the whole
// class. The classic intra-gate rules generate the classes (AND in-sa0 ==
// out-sa0 and duals, BUF identity, NOT polarity swap), chained transitively
// across BUF/NOT trees by union-find.
//
// Unlike the quick collapsing inside enumerateStuckAt, this pass is
// *observation-aware*: a gate-input stem fault is NOT merged with the gate
// output when the input net is itself visible (an observed net or a
// flip-flop D input) — the stem fault has an extra observation path there,
// so the two faults are distinguishable and merging would change detection
// outcomes. This stricter rule is what makes the expansion byte-identical:
//
//   grade(representatives) -> expandFirstDetect == grade(whole universe)
//
// for any pattern stream and any FaultSim engine (verified per-class by the
// proveEquivalenceOnStimulus check mode).
//
// Dominance ("every test for g also detects f") is not used: dropping a
// dominator loses its private detections, which is a coverage
// approximation, not an identity.
#ifndef COREBIST_ANALYZE_COLLAPSE_HPP_
#define COREBIST_ANALYZE_COLLAPSE_HPP_

#include <cstdint>
#include <span>
#include <vector>

#include "fault/fault.hpp"
#include "fault/fault_sim.hpp"
#include "netlist/netlist.hpp"

namespace corebist {

struct CollapseResult {
  /// The uncollapsed structural universe, in enumerateStuckAt order —
  /// expansion results use this indexing.
  std::vector<Fault> universe;
  /// classes[c] lists the universe indices of class c, ascending; the first
  /// entry is the representative.
  std::vector<std::vector<std::size_t>> classes;
  /// Per universe fault: its class index.
  std::vector<std::size_t> class_of;
  /// One representative fault per class (== universe[classes[c][0]]).
  std::vector<Fault> representatives;

  [[nodiscard]] std::size_t collapsedAway() const noexcept {
    return universe.size() - classes.size();
  }
};

/// Collapse the stuck-at universe of `nl`. `observed` is the campaign's
/// observation set (empty => primary outputs, the FaultSimOptions
/// convention); flip-flop D nets are always treated as visible, so the
/// classes stay valid for sequential engines too.
[[nodiscard]] CollapseResult collapseStuckAt(
    const Netlist& nl, std::span<const NetId> observed = {});

/// Expand per-representative first-detect results (indexed like
/// CollapseResult::representatives) to the full universe (indexed like
/// CollapseResult::universe).
[[nodiscard]] std::vector<std::int32_t> expandFirstDetect(
    const CollapseResult& c, std::span<const std::int32_t> rep_first_detect);

/// Proof-of-equivalence check mode: grade the FULL universe on `sim` /
/// `patterns` and verify every class detects uniformly (identical
/// first-detect index across members). Returns the offending class indices
/// (empty == equivalence proven on this stimulus).
[[nodiscard]] std::vector<std::size_t> proveEquivalenceOnStimulus(
    FaultSim& sim, const CollapseResult& c, const PatternSource& patterns,
    const FaultSimOptions& opts);

}  // namespace corebist

#endif  // COREBIST_ANALYZE_COLLAPSE_HPP_
