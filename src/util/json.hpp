// JSON string escaping and the finite guard shared by every JSON emitter
// (session reports, lint reports, resilience logs, bench files). Depends
// on nothing in the library, so every layer can include it.
#ifndef COREBIST_UTIL_JSON_HPP_
#define COREBIST_UTIL_JSON_HPP_

#include <string>
#include <string_view>

namespace corebist {

/// JSON string-literal escaping, applied to every string field the
/// exporters emit: `"` and `\` get a backslash, control characters become
/// \n/\t/\r/\u00XX (uppercase hex). Without it a core or TAM named
/// `say "hi"\now` would serialize to invalid JSON (and could smuggle keys
/// into the report).
[[nodiscard]] std::string jsonEscaped(std::string_view s);

/// Finite-guard companion to jsonEscaped, applied to every double the JSON
/// emitters format with printf: `%f` serializes inf/NaN as `inf`/`nan`,
/// which is not JSON. A zero-wall-time campaign (coarse clock, trivial
/// plan) or a zero-duration bench ratio otherwise poisons the whole
/// artifact; non-finite values clamp to 0.0. (LintReport and ResilienceLog
/// emit no floating-point fields — audited; route any future ones through
/// this guard too.)
[[nodiscard]] double jsonFinite(double v) noexcept;

}  // namespace corebist

#endif  // COREBIST_UTIL_JSON_HPP_
