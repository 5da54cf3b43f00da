// Structured findings of the static netlist/plan analyzer.
//
// Every analysis pass (structural lint, testability hazards) reports
// through the same vocabulary: a Diagnostic names the violated rule, its
// severity, the nets involved and — when the rule is about a *path*, like a
// combinational loop — a witness the caller can replay. LintReport aggregates a netlist's diagnostics with the query and
// JSON-export helpers the admission layers (CampaignService plan
// resolution, CI tooling) consume.
#ifndef COREBIST_ANALYZE_DIAGNOSTIC_HPP_
#define COREBIST_ANALYZE_DIAGNOSTIC_HPP_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "netlist/gate.hpp"

namespace corebist {

/// Rule ids of the static analysis passes. Kebab-case, stable: they appear
/// in JSON exports, admission-rejection exception messages and CI logs.
namespace rules {
inline constexpr std::string_view kCombLoop = "comb-loop";
inline constexpr std::string_view kUndrivenNet = "undriven-net";
inline constexpr std::string_view kMultiDrivenNet = "multi-driven-net";
inline constexpr std::string_view kUnclockedFlop = "unclocked-flop";
inline constexpr std::string_view kUnreachableGate = "unreachable-gate";
inline constexpr std::string_view kInvalidNetRef = "invalid-net-ref";
inline constexpr std::string_view kPackedStimulusWidth =
    "packed-stimulus-width";
}  // namespace rules

enum class Severity : std::uint8_t {
  kWarning,  // suspicious but simulatable (e.g. unreachable logic)
  kError,    // the netlist cannot be simulated/tested as-is
};

[[nodiscard]] std::string_view severityName(Severity s) noexcept;

/// One finding of a static analysis pass.
struct Diagnostic {
  Severity severity = Severity::kWarning;
  /// Kebab-case rule id (see analyze/lint.hpp rules:: constants).
  std::string rule;
  /// Human-readable explanation, suitable for an exception message.
  std::string message;
  /// Nets the finding is about (the floating net, the multi-driven net...).
  std::vector<NetId> nets;
  /// Rule-specific evidence path. For `comb-loop` this is the net cycle:
  /// witness[i] feeds the gate driving witness[i+1], and the last net feeds
  /// the gate driving the first. For `unreachable-gate` it is the
  /// unreachable gates' output nets.
  std::vector<NetId> witness;
};

/// All diagnostics of one netlist, in rule-scan order.
struct LintReport {
  std::string netlist;
  std::vector<Diagnostic> diagnostics;

  [[nodiscard]] bool hasErrors() const noexcept;
  [[nodiscard]] std::size_t countOf(Severity s) const noexcept;
  /// Diagnostics for one rule id (empty if the rule did not fire).
  [[nodiscard]] std::vector<const Diagnostic*> ofRule(
      std::string_view rule) const;
  /// First error-severity diagnostic, or nullptr when clean.
  [[nodiscard]] const Diagnostic* firstError() const noexcept;

  /// One-line "name: E errors, W warnings" summary.
  [[nodiscard]] std::string summary() const;
  /// Machine-readable export: {"netlist": ..., "diagnostics": [...]}.
  [[nodiscard]] std::string toJson() const;
};

}  // namespace corebist

#endif  // COREBIST_ANALYZE_DIAGNOSTIC_HPP_
