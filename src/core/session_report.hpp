// Structured campaign results for the SoC session layer.
//
// Per-core verdicts distinguish a signature mismatch from a status-poll
// timeout, retry/poll/TCK/at-speed accounting is explicit, and
// whole-campaign reports serialize to JSON through util/json's JsonWriter.
// Everything in a report except wall-clock timing is a deterministic
// function of (SoC state, TestPlan); fingerprint() serializes exactly that
// subset, which is how the campaign tests prove runs on any number of
// workers byte-identical to the one-worker run.
#ifndef COREBIST_CORE_SESSION_REPORT_HPP_
#define COREBIST_CORE_SESSION_REPORT_HPP_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"  // JsonWriter, jsonEscaped, jsonFinite

namespace corebist {

/// Signature comparison for one module of a core (one MISR upload).
struct ModuleVerdict {
  std::uint16_t signature = 0;
  std::uint16_t golden = 0;
  [[nodiscard]] bool pass() const noexcept { return signature == golden; }
};

/// How a core's test concluded. kTimeout means end_test was never observed
/// within the plan's poll budget (on any attempt) — the signatures were
/// never uploaded and the modules list is empty. kQuarantined means the
/// core's session *channel* kept failing through the service's two
/// reopens (service/service.cpp) and the service excluded the core to
/// protect the campaign — the core itself was never conclusively tested,
/// so its record carries identity and `channel_failures` only.
enum class CoreVerdict : std::uint8_t {
  kPass,
  kSignatureMismatch,
  kTimeout,
  kQuarantined,
};

[[nodiscard]] std::string_view coreVerdictName(CoreVerdict v);

/// Complete record of one core's campaign entry (all attempts).
struct CoreReport {
  int core_index = -1;
  std::string core_name;
  int tam = 0;    // TAM channel the core was tested through
  int depth = 0;  // nesting depth (0 = top-level, >0 = hierarchical core)
  CoreVerdict verdict = CoreVerdict::kTimeout;
  bool end_test_seen = false;
  int patterns = 0;        // per-attempt pattern budget from the plan
  int attempts = 0;        // protocol runs (1 + retries actually used)
  int timeouts = 0;        // attempts that ended without end_test
  int polls = 0;           // status-register reads across all attempts
  std::vector<ModuleVerdict> modules;
  std::size_t tap_clocks = 0;   // TCKs this core's session cost
  std::size_t bist_cycles = 0;  // commanded Run-Test/Idle (at-speed) clocks
  double seconds = 0.0;         // wall time (excluded from fingerprints)
  /// Session-channel failures this core survived (transient) or succumbed
  /// to (kQuarantined). How often infrastructure fails is an execution
  /// artifact like utilization, so fingerprints exclude it; a core that
  /// recovered from transient channel failures fingerprints identically to
  /// a never-failed run.
  int channel_failures = 0;
  [[nodiscard]] bool pass() const noexcept {
    return verdict == CoreVerdict::kPass;
  }
  [[nodiscard]] std::string summary() const;
};

/// JSON export of one core record — the same object shape SessionReport's
/// "cores" array carries, emitted standalone so the service layer can
/// stream per-core results incrementally while a campaign runs.
/// `include_timing=false` yields the fingerprint subset.
[[nodiscard]] std::string coreReportJson(const CoreReport& report,
                                         bool include_timing = true);

/// One TAM channel's share of a campaign under the service's placement:
/// which cores it ran serially (execution order) and its predicted vs
/// actual TCK load. Placement is a scheduling artifact like utilization,
/// so fingerprints exclude the whole structure.
struct ChannelLoad {
  int channel = 0;              // channel ordinal within the TAM
  std::vector<int> cores;       // core indices, in execution order
  std::size_t predicted_tcks = 0;  // P1500Ate cost-model prediction
  std::size_t actual_tcks = 0;     // measured tap_clocks, summed
};

/// Per-TAM slice of a campaign: which cores ran over this TAM (in plan
/// order — deterministic, unlike completion order), the TCK/at-speed
/// totals they cost, and how busy the TAM's channels were. The channel
/// count, utilization and the predicted/actual placement accounting
/// depend on scheduling, so fingerprints exclude them (like `threads` and
/// wall times).
struct TamReport {
  int tam_index = 0;
  std::string name;
  int channels = 1;  // channels the placement opened: min(workers, trees)
  std::vector<int> core_order;  // core indices in plan order
  std::size_t tap_clocks = 0;
  std::size_t bist_cycles = 0;
  double busy_seconds = 0.0;  // summed per-core wall time on this TAM
  /// busy_seconds / (campaign wall * channels): 1.0 = the TAM's channels
  /// never starved.
  double utilization = 0.0;
  // ---- placement accounting (timing-gated, like utilization) ----
  std::vector<ChannelLoad> channel_loads;  // ascending channel ordinal
  std::size_t predicted_tap_clocks = 0;    // summed over the TAM's cores
  /// Max predicted / actual channel load: the TAM's serialization floor
  /// under the applied placement (one worker per channel assumed).
  std::size_t predicted_makespan_tcks = 0;
  std::size_t actual_makespan_tcks = 0;
};

/// Whole-campaign report: per-core records in plan order plus aggregated
/// TCK / at-speed accounting and per-TAM slices.
struct SessionReport {
  std::string soc_name;
  int threads = 1;  // worker threads the campaign actually ran on
  std::vector<CoreReport> cores;
  std::vector<TamReport> tams;  // ascending TAM index; only TAMs that ran
  std::size_t total_tap_clocks = 0;
  std::size_t total_bist_cycles = 0;
  double wall_seconds = 0.0;
  // ---- placement accounting (timing-gated, excluded from fingerprint) ----
  /// Max predicted / actual channel load across every TAM channel: the
  /// campaign's serialization floor assuming one worker per channel.
  std::size_t predicted_makespan_tcks = 0;
  std::size_t actual_makespan_tcks = 0;

  [[nodiscard]] bool pass() const noexcept;
  [[nodiscard]] int passCount() const noexcept;
  /// First record for `core_index`, or nullptr when the plan skipped it.
  [[nodiscard]] const CoreReport* core(int core_index) const noexcept;
  [[nodiscard]] std::string summary() const;
  /// JSON export (timing included). Stable key order.
  [[nodiscard]] std::string toJson() const;
  /// Canonical serialization of the deterministic fields only (no wall
  /// times, no thread count): equal fingerprints <=> identical campaign
  /// outcomes, regardless of sharding.
  [[nodiscard]] std::string fingerprint() const;
};

}  // namespace corebist

#endif  // COREBIST_CORE_SESSION_REPORT_HPP_
