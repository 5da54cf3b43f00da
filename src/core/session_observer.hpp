// Progress streaming for SoC test campaigns.
//
// A campaign reports its progress through this callback interface instead
// of printing: embedders plug in dashboards, loggers or test probes. Each
// campaign keeps its observers in one ObserverList (the tenant's observer
// and, when asked for, its wire report stream), which runs every callback
// under one mutex, so implementations need no locking of their own and
// every observer of a campaign sees its events in the same order.
// Callbacks fire from worker threads, in completion order (which is only
// deterministic for single-channel campaigns). Every campaign ends with
// exactly one terminal event: onCampaignFinish when it completed,
// onCampaignEnd when it failed or was cancelled.
#ifndef COREBIST_CORE_SESSION_OBSERVER_HPP_
#define COREBIST_CORE_SESSION_OBSERVER_HPP_

#include <cstddef>
#include <cstdio>
#include <exception>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/session_report.hpp"

namespace corebist {

class SessionObserver {
 public:
  virtual ~SessionObserver() = default;
  virtual void onCampaignStart(int /*cores*/, int /*threads*/) {}
  /// Placement decision stream: one call per TAM channel, after
  /// onCampaignStart and before any core runs, in ascending (TAM, channel)
  /// order — deterministic, unlike completion order. `cores` lists the
  /// core indices the channel will run serially, in execution order;
  /// `predicted_tcks` is the P1500Ate cost-model load the placement pass
  /// balanced (see service/layout.hpp).
  virtual void onChannelPlaced(int /*tam*/, int /*channel*/,
                               const std::vector<int>& /*cores*/,
                               std::size_t /*predicted_tcks*/) {}
  /// `attempt` is 1-based; > 1 means a retry after a timeout.
  virtual void onCoreStart(int /*core_index*/, int /*attempt*/) {}
  virtual void onCoreTimeout(int /*core_index*/, int /*attempt*/,
                             bool /*will_retry*/) {}
  /// The core's session channel failed (`failures` so far, 1-based). When
  /// `will_retry` the service reopens a fresh channel and re-runs the
  /// core; otherwise the core is about to be quarantined.
  virtual void onChannelFailure(int /*core_index*/, int /*failures*/,
                                bool /*will_retry*/) {}
  /// The core's channel failed through the service's two reopens, and the
  /// core was excluded from the campaign with CoreVerdict::kQuarantined.
  virtual void onCoreQuarantined(int /*core_index*/, int /*failures*/) {}
  virtual void onCoreFinish(const CoreReport& /*report*/) {}
  virtual void onCampaignFinish(const SessionReport& /*report*/) {}
  /// The campaign ended without a report: `state` is "failed" or
  /// "cancelled", `error` the failure's message (empty when cancelled).
  virtual void onCampaignEnd(std::string_view /*state*/,
                             const std::string& /*error*/) {}
};

/// The observers of one campaign. notify() runs `call` on each of them in
/// the order they were added, all under one mutex; clear() detaches them,
/// and once it returns no callback is running or can start. An observer
/// that throws does not keep the event from the observers after it:
/// notify() calls every observer, then rethrows the first exception.
class ObserverList {
 public:
  /// Adds `observer` (not owned; null is ignored).
  void add(SessionObserver* observer) {
    if (observer == nullptr) return;
    const std::lock_guard<std::mutex> lock(mu_);
    observers_.push_back(observer);
  }

  template <class Call>
  void notify(Call&& call) {
    std::exception_ptr first;
    const std::lock_guard<std::mutex> lock(mu_);
    for (SessionObserver* o : observers_) {
      try {
        call(*o);
      } catch (...) {
        if (first == nullptr) first = std::current_exception();
      }
    }
    if (first != nullptr) std::rethrow_exception(first);
  }

  void clear() {
    const std::lock_guard<std::mutex> lock(mu_);
    observers_.clear();
  }

 private:
  std::mutex mu_;
  std::vector<SessionObserver*> observers_;
};

/// Prints one line per event to a stdio stream (default stdout).
///
/// Each event is formatted into one buffer and emitted with a single
/// fputs under a member mutex, so lines from concurrent campaigns sharing
/// one StreamObserver (the resident service's multi-tenant console case)
/// never interleave mid-line. `label` (optional, e.g. a campaign id)
/// prefixes every line so interleaved campaigns stay attributable.
class StreamObserver final : public SessionObserver {
 public:
  explicit StreamObserver(std::FILE* out = stdout, std::string label = {})
      : out_(out), label_(std::move(label)) {}

  void onCampaignStart(int cores, int threads) override {
    std::ostringstream os;
    os << "[campaign] " << cores << " core(s) on " << threads << " shard(s)";
    emit(os.str());
  }
  void onChannelPlaced(int tam, int channel, const std::vector<int>& cores,
                       std::size_t predicted_tcks) override {
    std::ostringstream os;
    os << "[tam " << tam << " ch " << channel << "]";
    for (const int c : cores) os << " core " << c;
    os << " (" << predicted_tcks << " predicted TCKs)";
    emit(os.str());
  }
  void onCoreStart(int core_index, int attempt) override {
    if (attempt > 1) {
      std::ostringstream os;
      os << "[core " << core_index << "] retry (attempt " << attempt << ")";
      emit(os.str());
    }
  }
  void onCoreTimeout(int core_index, int attempt, bool will_retry) override {
    std::ostringstream os;
    os << "[core " << core_index << "] attempt " << attempt << " timed out"
       << (will_retry ? ", retrying" : "");
    emit(os.str());
  }
  void onChannelFailure(int core_index, int failures,
                        bool will_retry) override {
    std::ostringstream os;
    os << "[core " << core_index << "] channel failure " << failures
       << (will_retry ? ", reopening channel" : "");
    emit(os.str());
  }
  void onCoreQuarantined(int core_index, int failures) override {
    std::ostringstream os;
    os << "[core " << core_index << "] QUARANTINED after " << failures
       << " channel failure(s)";
    emit(os.str());
  }
  void onCoreFinish(const CoreReport& report) override {
    std::ostringstream os;
    os << "[core " << report.core_index << "] " << report.summary();
    emit(os.str());
  }
  void onCampaignFinish(const SessionReport& report) override {
    emit("[campaign] " + report.summary());
  }
  void onCampaignEnd(std::string_view state,
                     const std::string& error) override {
    emit("[campaign] " + std::string(state) +
         (error.empty() ? "" : ": " + error));
  }

 private:
  void emit(const std::string& line) {
    std::string full;
    full.reserve(label_.size() + line.size() + 4);
    if (!label_.empty()) full += "[" + label_ + "] ";
    full += line;
    full += '\n';
    const std::lock_guard<std::mutex> lock(mu_);
    std::fputs(full.c_str(), out_);
  }

  std::FILE* out_;
  std::string label_;
  std::mutex mu_;
};

}  // namespace corebist

#endif  // COREBIST_CORE_SESSION_OBSERVER_HPP_
