// Deterministic fault injection for the campaign-execution layers.
//
// A *failpoint* is a named site compiled into an infrastructure hot path —
// the ShardedFaultSim dispatch loop, the worker request/reply protocol, the
// SessionChannel attempt machinery — where a test (or a chaos CI job) can
// arm a failure action: kill the executing worker, stall a reply past the
// watchdog, truncate or bit-flip a frame, force partial pipe writes, or
// delay with deterministic jitter. Sites are *always* compiled in; when
// nothing is armed the per-site cost is one relaxed atomic load
// (`failpointsArmed()`), so production campaigns pay nothing measurable
// (corebench's bist_qualify workload grades on an unarmed kResilient
// backend, which keeps that claim measured).
//
// Arming is programmatic (`FailpointRegistry::instance().arm(...)`) or
// environmental: the `COREBIST_FAILPOINTS` variable is parsed once at
// process start, which is how the CI chaos matrix drives whole test
// binaries through injected failure schedules without recompiling.
//
// Spec grammar (entries separated by ';'):
//
//   spec   := entry (';' entry)*
//   entry  := site '=' action (':' param)*
//   action := crash | hang | error | truncate | bitflip | shortwrite | delay
//   param  := key '=' integer
//   key    := worker | index | core      (match FailpointContext::index)
//           | shard | seq | attempt | poll  (match FailpointContext::seq)
//           | skip   (matches to skip before the first fire)
//           | count  (fires before the entry is spent; -1 = unlimited)
//           | ms | jitter                (delay milliseconds, + jitter cap)
//           | arg    (action argument: bit index / byte count)
//
// Example: `process.worker.shard=crash:worker=1:shard=3;` kills worker 1
// the first time it is handed stage-shard 3, once.
//
// Deterministic by construction: hit counting and `count` consumption
// happen in the arming process (the campaign parent), so a retried shard
// whose failure was already consumed re-runs clean — which is exactly what
// the resilience tests need to prove retry convergence. Sites document
// which context field means what (for `process.*` sites index = worker,
// seq = shard id; for `channel.*` sites index = core, seq = attempt/poll).
#ifndef COREBIST_FAULT_FAILPOINT_HPP_
#define COREBIST_FAULT_FAILPOINT_HPP_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace corebist {

/// What an armed failpoint does when it fires. The *site* interprets the
/// kind: a crash at a worker site is `_exit(42)`, a bitflip at a frame site
/// corrupts the serialized bytes, an error at a channel site throws
/// SessionChannelError. Sites ignore kinds that make no sense for them.
struct FailpointAction {
  enum class Kind : std::uint8_t {
    kOff = 0,
    kCrash,       // kill the executing process (_exit) at the site
    kHang,        // block forever (until the supervisor's SIGKILL)
    kError,       // throw the site's structured error type
    kTruncate,    // emit only the first `arg` bytes of the frame
    kBitflip,     // flip bit (arg mod frame bits) of the frame
    kShortWrite,  // split the frame write into dribbled partial writes
    kDelay,       // sleep delay_ms + deterministic jitter in [0, jitter_ms]
  };
  Kind kind = Kind::kOff;
  int delay_ms = 0;
  int jitter_ms = 0;
  std::uint64_t arg = 0;
};

/// Site-specific coordinates a firing is matched against. Conventions:
/// process.* sites pass {worker index, shard id}; channel.* sites pass
/// {core index, attempt / poll number}.
struct FailpointContext {
  std::int64_t index = -1;
  std::int64_t seq = -1;
};

namespace detail {
/// Number of armed entries across the process; the zero-cost fast path.
extern std::atomic<int> g_failpoints_armed;
}  // namespace detail

/// True when at least one failpoint entry is armed anywhere; one relaxed
/// load, suitable for per-frame hot paths.
[[nodiscard]] inline bool failpointsArmed() noexcept {
  return detail::g_failpoints_armed.load(std::memory_order_relaxed) != 0;
}

class FailpointRegistry {
 public:
  /// Process-wide singleton. Constructed eagerly at static-init time so the
  /// COREBIST_FAILPOINTS environment spec is armed before main() runs (a
  /// malformed env spec warns on stderr instead of throwing — static init
  /// must not terminate the binary).
  static FailpointRegistry& instance();

  /// Arm `site` with `action`. `match_index` / `match_seq` restrict firing
  /// to matching FailpointContext coordinates (-1 = any); `skip` matching
  /// hits pass through before the first fire; `count` fires are served
  /// before the entry is spent (-1 = unlimited). Entries for one site stack
  /// (first armed, first matched).
  void arm(std::string_view site, FailpointAction action,
           std::int64_t match_index = -1, std::int64_t match_seq = -1,
           int skip = 0, int count = 1);

  /// Parse and arm a spec string (grammar in the header comment). Throws
  /// std::invalid_argument naming the offending entry on malformed input;
  /// on a throw, entries parsed before the bad one stay armed.
  void armFromSpec(std::string_view spec);

  /// Arm from the COREBIST_FAILPOINTS environment variable. Returns the
  /// number of entries armed (0 when unset/empty); malformed specs warn on
  /// stderr and arm nothing further.
  int armFromEnv();

  /// Remove every entry for `site` (spent or not).
  void disarm(std::string_view site);
  /// Remove every entry and reset fire counters.
  void disarmAll();

  /// Fires served by `site` entries since they were armed (spent entries
  /// keep their tally until disarmed).
  [[nodiscard]] std::size_t firedCount(std::string_view site) const;
  /// Armed (non-spent) entries for `site`.
  [[nodiscard]] std::size_t armedCount(std::string_view site) const;

  /// Hot-path evaluation: the first armed entry matching (site, ctx) fires
  /// — its skip/count bookkeeping is consumed — and its action is returned;
  /// std::nullopt otherwise. Callers gate on failpointsArmed() first.
  [[nodiscard]] std::optional<FailpointAction> fire(std::string_view site,
                                                    const FailpointContext& ctx);

 private:
  FailpointRegistry() = default;

  struct Entry {
    std::string site;
    FailpointAction action;
    std::int64_t match_index = -1;
    std::int64_t match_seq = -1;
    int skip = 0;
    int remaining = 1;  // < 0 = unlimited
    std::size_t fired = 0;
  };

  void publishArmedCount();  // callers hold mu_

  mutable std::mutex mu_;
  std::vector<Entry> entries_;
};

/// Site-side convenience: one relaxed load when nothing is armed, full
/// registry evaluation otherwise.
[[nodiscard]] inline std::optional<FailpointAction> failpointFire(
    std::string_view site, std::int64_t index = -1, std::int64_t seq = -1) {
  if (!failpointsArmed()) return std::nullopt;
  return FailpointRegistry::instance().fire(site,
                                            FailpointContext{index, seq});
}

/// Deterministic jitter for kDelay actions: a fixed multiplicative hash of
/// the firing ordinal, so "delay with jitter" schedules replay identically.
[[nodiscard]] int failpointJitterMs(const FailpointAction& a,
                                    std::uint64_t ordinal) noexcept;

/// Sleep helper for kDelay (EINTR-safe nanosleep loop).
void failpointSleepMs(int ms) noexcept;

/// Cap on one retry's backoff sleep.
inline constexpr int kMaxBackoffMs = 250;

/// Exponential backoff shared by fault-sim shard retries and session
/// channel retries: retry `attempt` (1-based) waits
/// min(base_ms << (attempt - 1), kMaxBackoffMs); base_ms <= 0 disables it.
[[nodiscard]] int backoffMs(int base_ms, int attempt) noexcept;

}  // namespace corebist

#endif  // COREBIST_FAULT_FAILPOINT_HPP_
