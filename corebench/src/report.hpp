// Metric collection and the benchmark's output.
//
// Every run prints a human-readable block (metadata, every metric by name
// and unit, the paper's Table 3 reference next to the modelled coverage,
// failures), then one `corebench-record {...}` line holding everything, and
// last the result line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// An untraced run's result line carries the end-to-end metrics, a traced
// run's the per-layer metrics. Both lists are fixed here and are the same
// on every workload: a layer a workload leaves idle reads 0.
#ifndef COREBENCH_REPORT_HPP_
#define COREBENCH_REPORT_HPP_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace corebench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string out_dir = ".";  // where the traced run writes its spans
};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics (untraced run), identical on every workload.
[[nodiscard]] const std::vector<MetricDef>& endToEndMetrics();
/// Per-layer metrics (traced run), identical on every workload.
[[nodiscard]] const std::vector<MetricDef>& perLayerMetrics();

/// JSON string literal (quoted, escaped).
[[nodiscard]] std::string jsonString(std::string_view s);

/// Peak resident set size of this process image, in MB (VmHWM: unlike
/// getrusage's ru_maxrss it does not inherit the launching process's peak).
[[nodiscard]] double peakRssMb();

/// CPU seconds this process used (all threads) and CPU seconds the host
/// stole from this machine, both since boot/start: the difference between
/// two samples tells whether a slow window was the program or the host.
struct HostSample {
  double process_cpu_s = 0.0;
  double steal_s = 0.0;
};
[[nodiscard]] HostSample hostSample();
/// "window: wall 30.1 s, process CPU 45.2 s, host steal 0.3 s"
[[nodiscard]] std::string hostWindowNote(const HostSample& before,
                                         const HostSample& after,
                                         double wall_seconds);

class Report {
 public:
  explicit Report(Options opts) : opts_(std::move(opts)) {}

  /// A metric of the result line; `name` must be in endToEndMetrics() or
  /// perLayerMetrics().
  void set(const std::string& name, double value);
  /// A metric the workload reports under its own name (printed and
  /// recorded, not part of the result line), e.g. qualify_s.
  void workloadMetric(const std::string& name, const std::string& unit,
                      double value);
  /// A free-form line of the human-readable block.
  void note(std::string line);

  /// Print the human-readable block, the record line and the result line.
  /// Returns whether the run is correct: no failed operation, every result
  /// metric present and finite.
  bool print(const OpTally& tally, const Tracer& tracer) const;

 private:
  Options opts_;
  std::map<std::string, double> values_;
  struct Named {
    std::string name;
    std::string unit;
    double value;
  };
  std::vector<Named> named_;
  std::vector<std::string> notes_;
};

}  // namespace corebench

#endif  // COREBENCH_REPORT_HPP_
