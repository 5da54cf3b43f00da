#include "workloads.hpp"

#include <cstdio>

namespace corebench {

void repeatSetup(const std::function<void()>& release,
                 const std::function<void()>& build, std::vector<double>& secs) {
  int reps = 0;
  double total = 0.0;
  while (reps < kMinSetups ||
         (total < kSetupBudgetSeconds && reps < kMaxSetups)) {
    release();
    const double t0 = monotonicSeconds();
    build();
    secs.push_back(monotonicSeconds() - t0);
    total += secs.back();
    ++reps;
  }
}

std::size_t PassTimes::passes() const {
  return sampleCount(untraced) + sampleCount(traced);
}

PassTimes timedPasses(double seconds, int instances, bool trace,
                      OpTally& tally, HostSpeed& host,
                      const std::function<bool(int, bool)>& pass) {
  PassTimes out;
  out.untraced.resize(static_cast<std::size_t>(instances));
  out.traced.resize(static_cast<std::size_t>(instances));
  std::vector<double> all;
  const int min_passes = instances * (trace ? 2 : 1);
  host.sample(kSamplesAtWindowEnds);
  double sampling = 0.0;
  const double t0 = monotonicSeconds();
  for (int i = 0;; ++i) {
    const double elapsed = monotonicSeconds() - t0 - sampling;
    if (i >= min_passes && elapsed + median(all) > seconds) break;
    if (i > 0) sampling += host.sample(kSamplesBetweenOps);
    const int k = i % instances;
    const bool traced = trace && (i / instances) % 2 == 1;
    const double s0 = monotonicSeconds();
    const bool ok = tally.run([&] { return pass(k, traced); });
    const double dt = monotonicSeconds() - s0;
    all.push_back(dt);
    if (ok) {
      (traced ? out.traced : out.untraced)[static_cast<std::size_t>(k)]
          .push_back(dt);
    }
  }
  out.wall_seconds = monotonicSeconds() - t0 - sampling;
  host.sample(kSamplesAtWindowEnds);
  return out;
}

void reportCommon(const Options& opts, Report& report, const OpTally& tally,
                  const HostSpeed& host, double setup_s, double rss,
                  double op_p50_s, double ops_per_s) {
  const double f = host.factor();
  report.note(host.note());
  report.workloadMetric("setup_s", "s", setup_s);
  report.workloadMetric("peak_rss_mb", "MB", rss);
  report.workloadMetric("failed_frac", "ratio", tally.failedFrac());
  report.workloadMetric("host_speed_factor", "ratio", f);
  if (opts.trace) return;
  report.set("setup_s", setup_s * f);
  report.set("peak_rss_mb", rss);
  report.set("op_p50_s", op_p50_s * f);
  report.set("ops_per_s", ops_per_s / f);
}

std::string secondsList(const std::vector<double>& v) {
  std::string out;
  char buf[32];
  for (const double x : v) {
    std::snprintf(buf, sizeof buf, "%s%.3f", out.empty() ? "" : " ", x);
    out += buf;
  }
  return out;
}

std::string secondsList(const std::vector<std::vector<double>>& groups) {
  std::string out;
  for (std::size_t i = 0; i < groups.size(); ++i) {
    out += (i == 0 ? "" : " | ") + secondsList(groups[i]);
  }
  return out;
}

void reportTraceOverhead(Report& report,
                         const std::vector<std::vector<double>>& untraced,
                         const std::vector<std::vector<double>>& traced) {
  const double base = meanOfMedians(untraced);
  const double overhead = meanOfMedians(traced) - base;
  report.set("trace.overhead_s", overhead);
  report.set("trace.overhead_frac", base > 0.0 ? overhead / base : 0.0);
  report.note("tracing overhead: " + std::to_string(overhead) +
              " s per operation (median per input instance of " +
              std::to_string(sampleCount(traced)) + " traced vs " +
              std::to_string(sampleCount(untraced)) +
              " untraced operations)");
}

void setSpanMedian(Report& report, const Tracer& tracer,
                   const std::string& metric, const std::string& span) {
  const std::vector<double> d = tracer.durations(span);
  if (!d.empty()) report.set(metric, median(d));
}

}  // namespace corebench
