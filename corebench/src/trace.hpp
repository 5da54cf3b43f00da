// In-memory span recorder for the traced run.
//
// Spans are recorded from the benchmark's own files, around each call it
// makes into a library layer (and, on soc_floor, from a per-campaign
// SessionObserver). Each span has a name, start and end (seconds since the
// tracer was created), the id of the span that caused it and the campaign
// it belongs to. Spans stay in memory and are written out once, when the
// benchmark ends. A disabled tracer records nothing and Scope costs one
// branch.
#ifndef COREBENCH_TRACE_HPP_
#define COREBENCH_TRACE_HPP_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace corebench {

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  std::int64_t parent = -1;  // index of the causing span, -1 = root
  std::uint64_t campaign = 0;  // 0 = not part of a campaign
};

/// Per span name: how many, total duration, and self time (duration minus
/// the part of it covered by child spans).
struct SpanTotals {
  std::size_t count = 0;
  double total = 0.0;
  double self = 0.0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled)
      : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Seconds since the tracer was created (steady clock).
  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_)
        .count();
  }

  /// Record a finished span; returns its id (-1 when disabled).
  std::int64_t add(std::string name, double start, double end,
                   std::int64_t parent = -1, std::uint64_t campaign = 0);
  /// Open a span now; close it with close(). Returns -1 when disabled.
  std::int64_t open(std::string name, std::int64_t parent = -1);
  void close(std::int64_t id);

  /// Durations of every span named `name`, in recording order.
  [[nodiscard]] std::vector<double> durations(std::string_view name) const;
  [[nodiscard]] std::map<std::string, SpanTotals> totals() const;
  [[nodiscard]] std::size_t size() const;

  /// Write every span as JSON to `path`; false on I/O failure.
  bool write(const std::string& path) const;

 private:
  bool enabled_;
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;  // guards spans_
  std::vector<Span> spans_;
};

/// RAII span: open on construction, close on destruction. A null or
/// disabled tracer makes it a no-op (untraced operations of a traced run
/// pass nullptr).
class Scope {
 public:
  Scope(Tracer* tracer, std::string name, std::int64_t parent = -1)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
        id_(tracer_ != nullptr ? tracer_->open(std::move(name), parent)
                               : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] std::int64_t id() const noexcept { return id_; }

 private:
  Tracer* tracer_;
  std::int64_t id_;
};

}  // namespace corebench

#endif  // COREBENCH_TRACE_HPP_
