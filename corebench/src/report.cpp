#include "report.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <sstream>
#include <thread>

#include "core/session_report.hpp"
#include "fault/lane.hpp"

#ifndef COREBENCH_FLAGS
#define COREBENCH_FLAGS "unknown"
#endif
#ifndef COREBENCH_COMPILER
#define COREBENCH_COMPILER "unknown"
#endif

namespace corebench {

const std::vector<MetricDef>& endToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"op_p50_s", "s"},
      {"ops_per_s", "1/s"},
  };
  return defs;
}

const std::vector<MetricDef>& perLayerMetrics() {
  static const std::vector<MetricDef> defs = {
      {"ldpc.build_s", "s"},
      {"fault.enumerate_s", "s"},
      {"scan.insert_s", "s"},
      {"bist.stimulus_s", "s"},
      {"fault.seq_saf_s.bn", "s"},
      {"fault.seq_saf_s.cu", "s"},
      {"fault.seq_saf_s.cn", "s"},
      {"fault.seq_tdf_s.bn", "s"},
      {"fault.seq_tdf_s.cu", "s"},
      {"fault.seq_tdf_s.cn", "s"},
      {"fault.misr_s.bn", "s"},
      {"fault.misr_s.cu", "s"},
      {"fault.misr_s.cn", "s"},
      {"fault.faults_graded", "count"},
      {"fault.detected", "count"},
      {"fault.misr_aliased", "count"},
      {"bist.fc_saf_pct", "%"},
      {"bist.fc_tdf_pct", "%"},
      {"bist.fc_misr_pct", "%"},
      {"atpg.saf_s.bn", "s"},
      {"atpg.saf_s.cu", "s"},
      {"atpg.saf_s.cn", "s"},
      {"atpg.tdf_s.bn", "s"},
      {"atpg.tdf_s.cu", "s"},
      {"atpg.tdf_s.cn", "s"},
      {"atpg.bootstrap_s.bn", "s"},
      {"atpg.bootstrap_s.cu", "s"},
      {"atpg.bootstrap_s.cn", "s"},
      {"atpg.podem_calls", "count"},
      {"atpg.backtracks", "count"},
      {"atpg.batches", "count"},
      {"atpg.patterns", "count"},
      {"atpg.abort_ratio", "ratio"},
      {"atpg.fc_saf_pct", "%"},
      {"atpg.fc_tdf_pct", "%"},
      {"atpg.test_cycles", "cycles"},
      {"service.cold_campaign_s", "s"},
      {"service.submit_s", "s"},
      {"service.queue_wait_s", "s"},
      {"service.worker_busy_frac", "ratio"},
      {"service.artifact_hits", "count"},
      {"service.artifact_misses", "count"},
      {"service.artifact_hit_rate", "ratio"},
      {"service.modules_shared", "count"},
      {"core.session_s.ldpc", "s"},
      {"core.session_s.udl", "s"},
      {"core.session_s.nested", "s"},
      {"core.channel_failures", "count"},
      {"core.quarantined", "count"},
      {"tam.tcks_per_campaign", "TCK"},
      {"tam.tcks_per_busy_s", "TCK/s"},
      {"tam.die_test_tcks", "TCK"},
      {"trace.overhead_s", "s"},
      {"trace.overhead_frac", "ratio"},
  };
  return defs;
}

std::string jsonString(std::string_view s) {
  return "\"" + corebist::jsonEscaped(s) + "\"";
}

double peakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

HostSample hostSample() {
  HostSample s;
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    s.process_cpu_s = static_cast<double>(ru.ru_utime.tv_sec) +
                      static_cast<double>(ru.ru_stime.tv_sec) +
                      1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                                 ru.ru_stime.tv_usec);
  }
  // Aggregate "cpu" line of /proc/stat: the 8th value is steal, in ticks.
  if (std::FILE* f = std::fopen("/proc/stat", "r")) {
    unsigned long long v[8] = {};
    if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                    &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
      const long hz = sysconf(_SC_CLK_TCK);
      s.steal_s = static_cast<double>(v[7]) / static_cast<double>(hz > 0 ? hz : 100);
    }
    std::fclose(f);
  }
  return s;
}

std::string hostWindowNote(const HostSample& before, const HostSample& after,
                           double wall_seconds) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "timed window: wall %.3f s, process CPU %.3f s, host steal "
                "%.3f s",
                wall_seconds, after.process_cpu_s - before.process_cpu_s,
                after.steal_s - before.steal_s);
  return buf;
}

void Report::set(const std::string& name, double value) {
  values_[name] = value;
}

void Report::workloadMetric(const std::string& name, const std::string& unit,
                            double value) {
  named_.push_back(Named{name, unit, value});
}

void Report::note(std::string line) { notes_.push_back(std::move(line)); }

namespace {

/// All digits of a measured value; JSON has no inf/NaN (callers reject
/// non-finite values before they get here).
std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", corebist::jsonFinite(v));
  return buf;
}

}  // namespace

bool Report::print(const OpTally& tally, const Tracer& tracer) const {
  const std::vector<MetricDef>& result_defs =
      opts_.trace ? perLayerMetrics() : endToEndMetrics();
  bool correct = tally.failed == 0 && tally.attempted > 0;
  std::vector<std::string> problems;
  std::ostringstream metrics;
  metrics << "{";
  for (std::size_t i = 0; i < result_defs.size(); ++i) {
    const MetricDef& d = result_defs[i];
    const auto it = values_.find(d.name);
    double v = 0.0;
    if (it != values_.end()) {
      v = it->second;
    } else if (!opts_.trace) {
      problems.push_back(std::string("end-to-end metric ") + d.name +
                         " was not measured");
    }
    if (!std::isfinite(v)) {
      problems.push_back(std::string("metric ") + d.name + " is not finite");
    }
    metrics << (i == 0 ? "" : ", ") << jsonString(d.name)
            << ": {\"value\": " << num(v)
            << ", \"unit\": " << jsonString(d.unit) << "}";
  }
  metrics << "}";
  if (!problems.empty()) correct = false;

  const unsigned nproc = std::thread::hardware_concurrency();
  std::printf("== corebench %s  seed %llu  %.0f s  trace %d\n",
              opts_.workload.c_str(),
              static_cast<unsigned long long>(opts_.seed), opts_.seconds,
              opts_.trace ? 1 : 0);
  std::printf("meta: lane_backend=%s lane_words=%d nproc=%u compiler=\"%s\" "
              "flags=\"%s\"\n",
              corebist::kLaneBackend, corebist::kLaneWords, nproc,
              COREBENCH_COMPILER, COREBENCH_FLAGS);
  for (const std::string& n : notes_) std::printf("%s\n", n.c_str());
  std::printf("workload metrics (as measured):\n");
  for (const Named& m : named_) {
    std::printf("  %-24s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("%s metrics (result line):\n",
              opts_.trace ? "per-layer" : "end-to-end");
  for (const MetricDef& d : result_defs) {
    const auto it = values_.find(d.name);
    if (it == values_.end()) {
      std::printf("  %-28s %14s %s\n", d.name, "idle", d.unit);
    } else {
      std::printf("  %-28s %14.6g %s\n", d.name, it->second, d.unit);
    }
  }
  const std::map<std::string, SpanTotals> totals = tracer.totals();
  if (!totals.empty()) {
    std::printf("spans (name, count, total s, self s):\n");
    for (const auto& [name, t] : totals) {
      std::printf("  %-28s %6zu %12.6f %12.6f\n", name.c_str(), t.count,
                  t.total, t.self);
    }
  }
  std::printf("operations: %zu attempted, %zu failed (failed_frac %.6g)\n",
              tally.attempted, tally.failed, tally.failedFrac());
  for (const std::string& e : tally.errors) {
    std::printf("  failure: %s\n", e.c_str());
  }
  for (const std::string& p : problems) std::printf("  problem: %s\n", p.c_str());

  // Record line: everything above, machine-readable.
  std::ostringstream rec;
  rec << "{\"workload\": " << jsonString(opts_.workload)
      << ", \"seed\": " << opts_.seed << ", \"seconds\": " << num(opts_.seconds)
      << ", \"trace\": " << (opts_.trace ? 1 : 0) << ", \"meta\": {"
      << "\"lane_backend\": " << jsonString(corebist::kLaneBackend)
      << ", \"lane_words\": " << corebist::kLaneWords
      << ", \"nproc\": " << nproc
      << ", \"compiler\": " << jsonString(COREBENCH_COMPILER)
      << ", \"flags\": " << jsonString(COREBENCH_FLAGS) << "}"
      << ", \"workload_metrics\": {";
  for (std::size_t i = 0; i < named_.size(); ++i) {
    rec << (i == 0 ? "" : ", ") << jsonString(named_[i].name)
        << ": {\"value\": " << num(named_[i].value)
        << ", \"unit\": " << jsonString(named_[i].unit) << "}";
  }
  rec << "}, \"spans\": {";
  bool first = true;
  for (const auto& [name, t] : totals) {
    rec << (first ? "" : ", ") << jsonString(name) << ": {\"count\": "
        << t.count << ", \"total_s\": " << num(t.total)
        << ", \"self_s\": " << num(t.self) << "}";
    first = false;
  }
  rec << "}, \"failed_frac\": " << num(tally.failedFrac())
      << ", \"errors\": [";
  for (std::size_t i = 0; i < tally.errors.size(); ++i) {
    rec << (i == 0 ? "" : ", ") << jsonString(tally.errors[i]);
  }
  rec << "], \"notes\": [";
  for (std::size_t i = 0; i < notes_.size(); ++i) {
    rec << (i == 0 ? "" : ", ") << jsonString(notes_[i]);
  }
  rec << "]}";
  std::printf("corebench-record %s\n", rec.str().c_str());

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", tally.attempted, tally.failed,
              metrics.str().c_str());
  std::fflush(stdout);
  return correct;
}

}  // namespace corebench
