// The three workloads. Each builds its inputs from the seed (set-up,
// repeated and reported as a median), then runs its operation for the
// requested seconds, checks every output, and fills the report. Set-up
// errors throw; operation errors count in the tally.
//
// Traced runs mix traced and untraced operations on the same inputs, so the
// tracing overhead (trace.overhead_*) is measured inside one run.
#ifndef COREBENCH_WORKLOADS_HPP_
#define COREBENCH_WORKLOADS_HPP_

#include <chrono>
#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "hostspeed.hpp"
#include "report.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace corebench {

/// Set-up repetitions: a run repeats its set-up before its timed window and
/// again after it, each half at least kMinSetups times and more while that
/// half has taken less than kSetupBudgetSeconds (at most kMaxSetups), so
/// cheap set-ups get a steadier median. setup_s is the median of both
/// halves: it samples the host at both ends of the run, not only in its
/// first second.
inline constexpr int kMinSetups = 3;
inline constexpr int kMaxSetups = 21;
inline constexpr double kSetupBudgetSeconds = 0.75;

void runBistQualify(const Options& opts, Report& report, OpTally& tally,
                    Tracer& tracer);
void runAtpgFullScan(const Options& opts, Report& report, OpTally& tally,
                     Tracer& tracer);
void runSocFloor(const Options& opts, Report& report, OpTally& tally,
                 Tracer& tracer);

/// Seconds on the steady clock.
[[nodiscard]] inline double monotonicSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One half of a run's set-ups, as described at kMinSetups: `release()`
/// drops the previous set-up (untimed), `build()` makes the next (timed).
/// The last set-up stays built; the same seed rebuilds the same inputs, so
/// the half after the timed window leaves the workload as it was. Appends
/// each build's seconds to `secs`.
void repeatSetup(const std::function<void()>& release,
                 const std::function<void()>& build, std::vector<double>& secs);

/// Seconds of the passes that passed, untraced and traced, per input
/// instance in run order, and of the whole timed window.
struct PassTimes {
  std::vector<std::vector<double>> untraced;
  std::vector<std::vector<double>> traced;
  double wall_seconds = 0.0;

  /// Passes that passed, traced or not.
  [[nodiscard]] std::size_t passes() const;
};

/// Repeat passes for `seconds`, cycling over `instances` input instances:
/// pass i runs instance i % instances, and at least one full cycle runs. A
/// pass is not started when a typical pass (the median so far) would end
/// past `seconds`. A traced run runs at least two cycles and traces every
/// other cycle, so its traced and untraced passes cover the same instances.
/// `pass(instance, traced)` returns true when its output checks passed.
/// `host` is sampled at both ends of the window and between passes; the
/// sampling counts in neither `seconds` nor wall_seconds.
///
/// Instances differ in how much work they are, so a run's op_p50_s is
/// meanOfMedians(untraced): each instance's median pass, averaged over the
/// instances, whichever of them the last, partial cycle happened to reach.
PassTimes timedPasses(double seconds, int instances, bool trace,
                      OpTally& tally, HostSpeed& host,
                      const std::function<bool(int, bool)>& pass);

/// The metrics every workload reports: setup_s, peak_rss_mb, failed_frac
/// and host_speed_factor under their own names, as measured, and, on an
/// untraced run, the four end-to-end metrics of the result line, with the
/// times scaled by host.factor() (see hostspeed.hpp). `rss` is peakRssMb()
/// read before the set-ups that follow the timed window.
void reportCommon(const Options& opts, Report& report, const OpTally& tally,
                  const HostSpeed& host, double setup_s, double rss,
                  double op_p50_s, double ops_per_s);

/// 100 * num / den, 0 when den is 0.
[[nodiscard]] inline double percent(std::size_t num, std::size_t den) {
  return den == 0 ? 0.0
                  : 100.0 * static_cast<double>(num) /
                        static_cast<double>(den);
}

/// "0.123 4.567 ..." (seconds, for the human-readable block).
[[nodiscard]] std::string secondsList(const std::vector<double>& v);

/// secondsList per instance: "0.123 0.130 | 4.567 4.501 | ...".
[[nodiscard]] std::string secondsList(
    const std::vector<std::vector<double>>& groups);

/// Fill trace.overhead_* from traced vs untraced operation times, grouped
/// by input instance and compared by meanOfMedians.
void reportTraceOverhead(Report& report,
                         const std::vector<std::vector<double>>& untraced,
                         const std::vector<std::vector<double>>& traced);

/// Median duration of the spans named `span`, or nothing if none.
void setSpanMedian(Report& report, const Tracer& tracer,
                   const std::string& metric, const std::string& span);

}  // namespace corebench

#endif  // COREBENCH_WORKLOADS_HPP_
