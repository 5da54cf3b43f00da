// Structural netlist lint: admission-time detection of the defects that
// otherwise surface dynamically — a combinational loop as a levelize throw
// mid-campaign, a floating or doubly-driven net as a garbage signature, an
// unbound flip-flop as simulator UB.
//
// Rules (see analyze/README.md for the full catalog):
//   comb-loop (error)             cycle through combinational gates, with a
//                                 replayable net-cycle witness
//   undriven-net (error)          a net read by logic (or marked PO) with no
//                                 driver that is neither a PI nor a state net
//   multi-driven-net (error)      two or more drivers contend for one net
//   unclocked-flop (error)        a DFF whose D input was never bound
//   invalid-net-ref (error)       a gate/DFF references a nonexistent net
//   unreachable-gate (warning)    logic outside every observation cone
//   packed-stimulus-width (warn)  > 64 PIs: packed one-word-per-cycle
//                                 stimulus cannot drive the module
//                                 (analyze/hazards.hpp owns the limit)
//
// The linter never throws on malformed input — reporting malformed input is
// its job. The campaign layout (service/layout.hpp) runs it on every
// referenced core's modules when a CampaignService resolves a plan and
// converts error-severity findings into std::invalid_argument rejections.
#ifndef COREBIST_ANALYZE_LINT_HPP_
#define COREBIST_ANALYZE_LINT_HPP_

#include "analyze/diagnostic.hpp"
#include "netlist/netlist.hpp"

namespace corebist {

/// Run every structural rule over `nl`. Deterministic: diagnostics appear
/// in fixed rule order, ascending net/gate ids within a rule.
[[nodiscard]] LintReport lintNetlist(const Netlist& nl);

}  // namespace corebist

#endif  // COREBIST_ANALYZE_LINT_HPP_
