// Fault-sharding orchestration over the FaultSim seam: the one sharding
// loop behind FsimBackend::kThreaded and kResilient.
//
// ShardedFaultSim owns the campaign: the result rows, the geometric stage
// ladder (`ladderStages`: short stages retire the easy majority before
// anyone pays the full pattern budget), shard slicing of the live fault
// list, the per-row merge, the survivor recompute between stages —
// cross-shard dropping, so a fault detected anywhere stops being simulated
// everywhere — and the detected count. Each stage's shards are graded by
// one of two executors:
//
//   * threads — N threads pull shards from an atomic counter, each grading
//     on a private clone of the prototype engine. Clones share the
//     prototype's compiled GateProgram but own their scratch. They persist
//     across run() calls (batched consumers such as ATPG call run() once per
//     batch, and a fresh clone allocates its scratch again), so run() is not
//     re-entrant on one object; clone() per caller thread instead.
//   * forked workers — the fleet is forked inside run() after argument
//     validation, so immutable campaign state (netlist, pattern sources
//     including the `launch` pair stream, MISR feeds) rides the fork-time
//     copy-on-write snapshot; only shards, the stage budget and injected
//     failures cross the checksummed pipe protocol (fault/process_wire.hpp).
//     A worker owns its allocator arena and page tables, and a crashed or
//     wedged worker cannot take the campaign down. Response pipes are read
//     against per-shard monotonic deadlines (`timeout_ms`).
//
// One supervision policy sits above both. A failed forked shard (worker
// death, a reply past the watchdog, a corrupted frame) is SIGKILLed, reaped
// and requeued to a freshly forked worker after exponential backoff
// (fault/failpoint.hpp backoffMs), up to `max_shard_retries` times. Past
// that budget the run either rethrows a ProcessFsimError
// (`degrade_on_failure = false`) or steps the remaining shards down the
// ladder: process -> threaded -> serial. The backends are policies:
//
//   kThreaded   the thread executor, unsupervised: an engine exception
//               propagates from run() once every thread has joined;
//   kResilient  the fork executor under the options' policy; with
//               {max_shard_retries = 0, degrade_on_failure = false} the
//               first failure throws.
//
// Byte-identity: every shard is graded with identical semantics on every
// executor and attempt — same fault slice, same stage budget, prepass 0,
// one thread — and merged into disjoint result rows, so
// results equal the serial engine's at any worker count, shard size and
// injected failure schedule that eventually succeeds. Engine errors (the
// engine rejecting the campaign, e.g. MISR on a comb kernel) are
// deterministic: never retried, always the engine's own
// std::invalid_argument. Every recovery decision lands in lastLog().
//
// Tests: parallel_fsim_test (threads), process_fsim_test (fork executor,
// failure paths), resilience_test (retry, ladder, chaos schedules).
#ifndef COREBIST_FAULT_SHARDED_FSIM_HPP_
#define COREBIST_FAULT_SHARDED_FSIM_HPP_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/backend.hpp"
#include "fault/fault_sim.hpp"

namespace corebist {

/// Structured failure of a forked campaign: a worker died (signal,
/// unexpected exit, pipe corruption) or stopped responding within
/// `timeout_ms`, and the supervision policy allowed no (further) retry. By
/// the time this reaches the caller every worker has been killed and
/// waitpid()ed — the parent never hangs and never leaks a zombie. Carries
/// partial accounting of the failing stage for forensics.
class ProcessFsimError : public std::runtime_error {
 public:
  enum class Reason {
    kWorkerDied,  // EOF / short read on a response pipe, or bad exit status
    kTimeout,     // no worker response within timeout_ms
    kProtocol,    // malformed message framing
  };

  ProcessFsimError(Reason reason, std::size_t shards_completed,
                   std::size_t shards_total, std::size_t detected_so_far,
                   const std::string& detail)
      : std::runtime_error("ProcessFaultSim: " + detail),
        reason_(reason),
        shards_completed_(shards_completed),
        shards_total_(shards_total),
        detected_so_far_(detected_so_far) {}

  [[nodiscard]] Reason reason() const noexcept { return reason_; }
  /// Shards of the failing stage whose results were merged before the
  /// failure (partial accounting; the merged rows are complete per fault).
  [[nodiscard]] std::size_t shardsCompleted() const noexcept {
    return shards_completed_;
  }
  [[nodiscard]] std::size_t shardsTotal() const noexcept {
    return shards_total_;
  }
  /// Faults with a merged detection at failure time (across all stages).
  [[nodiscard]] std::size_t detectedSoFar() const noexcept {
    return detected_so_far_;
  }

 private:
  Reason reason_;
  std::size_t shards_completed_;
  std::size_t shards_total_;
  std::size_t detected_so_far_;
};

/// One recovery decision made by the supervisor.
struct ResilienceEvent {
  enum class Kind : std::uint8_t {
    kRetry,          // shard requeued after a worker failure
    kRespawn,        // fresh worker forked into a dead slot
    kDegrade,        // stepped down one ladder rung
    kStrayShutdown,  // post-campaign cleanup found a non-clean worker exit
  };
  Kind kind = Kind::kRetry;
  /// Ladder rung the event happened on: 0 process, 1 threaded, 2 serial.
  int rung = 0;
  int worker = -1;
  std::int64_t shard = -1;
  int stage_cycles = 0;
  /// Retry ordinal for kRetry (1 = first re-dispatch).
  int attempt = 0;
  int backoff_ms = 0;
  std::string detail;
};

[[nodiscard]] const char* resilienceEventName(ResilienceEvent::Kind k) noexcept;
[[nodiscard]] const char* resilienceRungName(int rung) noexcept;

/// Structured record of one run()'s recovery activity. `final_rung` is the
/// deepest ladder rung any shard was graded on (0 = the campaign stayed
/// fully process-isolated).
struct ResilienceLog {
  std::vector<ResilienceEvent> events;
  int retries = 0;
  int respawns = 0;
  int degradations = 0;
  int final_rung = 0;

  [[nodiscard]] bool clean() const noexcept { return events.empty(); }
  /// JSON (stable key order) for campaign telemetry.
  [[nodiscard]] std::string toJson() const;
};

class ShardedFaultSim : public FaultSim {
 public:
  /// Clones `prototype` once, so it may die before this object. `opts`
  /// picks the backend (kThreaded or kResilient), the worker count (0 =>
  /// one per hardware thread), the shard size and, for the fork executor,
  /// the watchdog and supervision policy; lane_words is ignored (the
  /// prototype fixes the kernel).
  ShardedFaultSim(const FaultSim& prototype, const FsimBackendOptions& opts);

  [[nodiscard]] const Netlist& netlist() const noexcept override;
  /// Grade `faults`. Throws the engine's std::invalid_argument for an
  /// invalid campaign, a ProcessFsimError when the fork executor fails past
  /// what the policy absorbs, or whatever an unsupervised thread executor's
  /// engine threw. Every forked child is reaped before returning.
  /// Fork-safety: call from a thread that holds no locks other threads
  /// contend on.
  [[nodiscard]] FaultSimResult run(std::span<const Fault> faults,
                                   const PatternSource& patterns,
                                   const FaultSimOptions& opts) override;
  [[nodiscard]] std::unique_ptr<FaultSim> clone() const override;

  /// Recovery record of the most recent run() on THIS object (clones start
  /// clean). Valid after run() returns or throws.
  [[nodiscard]] const ResilienceLog& lastLog() const noexcept { return log_; }

 private:
  struct Stage;
  struct Fleet;

  /// Thread executor: grades the `todo` shards of `st` on up to
  /// `nthreads` threads; rethrows the first engine exception after the
  /// join.
  void gradeThreaded(const Stage& st, const std::vector<std::size_t>& todo,
                     std::size_t nthreads);
  /// Fork executor under the retry policy: grades every shard of `st`.
  /// Throws ProcessFsimError once a shard has used up its retries, with
  /// the shards not yet merged left in `left`.
  void gradeForked(Fleet& fleet, const Stage& st,
                   std::vector<std::size_t>& left);

  std::unique_ptr<FaultSim> proto_;
  FsimBackendOptions opts_;
  ResilienceLog log_;
  /// Thread-executor engine clones, reused across run() calls.
  std::vector<std::unique_ptr<FaultSim>> engines_;
};

}  // namespace corebist

#endif  // COREBIST_FAULT_SHARDED_FSIM_HPP_
