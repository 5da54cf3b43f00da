#include "fault/sharded_fsim.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <exception>
#include <mutex>
#include <numeric>
#include <optional>
#include <thread>

#include "fault/failpoint.hpp"
#include "fault/process_wire.hpp"
#include "util/json.hpp"

namespace corebist {

namespace w = fsimwire;
using Reason = ProcessFsimError::Reason;

namespace {

constexpr int kRungProcess = 0;
constexpr int kRungThreaded = 1;
constexpr int kRungSerial = 2;

// Failpoint site for ladder tests: arming `resilient.rung=error:index=1`
// makes the threaded rung refuse, pushing degradation down to serial.
constexpr const char* kFpResilientRung = "resilient.rung";

std::size_t countDetected(const FaultSimResult& r) {
  return static_cast<std::size_t>(
      std::count_if(r.first_detect.begin(), r.first_detect.end(),
                    [](std::int32_t fd) { return fd >= 0; }));
}

}  // namespace

const char* resilienceEventName(ResilienceEvent::Kind k) noexcept {
  switch (k) {
    case ResilienceEvent::Kind::kRetry:
      return "retry";
    case ResilienceEvent::Kind::kRespawn:
      return "respawn";
    case ResilienceEvent::Kind::kDegrade:
      return "degrade";
    case ResilienceEvent::Kind::kStrayShutdown:
      return "stray_shutdown";
  }
  return "?";
}

const char* resilienceRungName(int rung) noexcept {
  switch (rung) {
    case kRungProcess:
      return "process";
    case kRungThreaded:
      return "threaded";
    case kRungSerial:
      return "serial";
    default:
      return "?";
  }
}

std::string ResilienceLog::toJson() const {
  JsonWriter w;
  w.beginObject()
      .field("retries", retries)
      .field("respawns", respawns)
      .field("degradations", degradations)
      .field("final_rung", resilienceRungName(final_rung))
      .key("events")
      .beginArray();
  for (const ResilienceEvent& e : events) {
    w.beginObject()
        .field("kind", resilienceEventName(e.kind))
        .field("rung", resilienceRungName(e.rung))
        .field("worker", e.worker)
        .field("shard", e.shard)
        .field("stage_cycles", e.stage_cycles)
        .field("attempt", e.attempt)
        .field("backoff_ms", e.backoff_ms)
        .field("detail", e.detail)
        .endObject();
  }
  w.endArray().endObject();
  return w.str();
}

/// One rung of the stage ladder: the live faults cut into shards of `size`,
/// each graded with the engine options `wopts`.
struct ShardedFaultSim::Stage {
  std::span<const Fault> faults;
  const PatternSource& patterns;
  const std::vector<std::uint32_t>& live;
  std::size_t size;
  FaultSimOptions wopts;
  FaultSimResult& result;

  [[nodiscard]] std::size_t count() const {
    return (live.size() + size - 1) / size;
  }
  [[nodiscard]] std::size_t rows(std::size_t s) const {
    return std::min(size, live.size() - s * size);
  }
  void collect(std::size_t s, std::vector<Fault>& out) const {
    out.clear();
    for (std::size_t k = 0; k < rows(s); ++k) {
      out.push_back(faults[live[s * size + k]]);
    }
  }
  /// True when `sub` holds shard `s`'s records in this campaign's shape
  /// (a reply decoded from the wire is checked before it is merged).
  [[nodiscard]] bool fits(std::size_t s, const FaultSimResult& sub) const {
    const std::size_t n = rows(s);
    const auto want = [n](const auto& rows_of_campaign) {
      return rows_of_campaign.empty() ? std::size_t{0} : n;
    };
    return sub.first_detect.size() == n &&
           sub.window_mask.size() == want(result.window_mask) &&
           sub.misr_detect.size() == want(result.misr_detect) &&
           sub.detect_patterns.size() == want(result.detect_patterns) &&
           sub.sig_words_per_fault == result.sig_words_per_fault;
  }
  /// Copy shard `s`'s records into the campaign rows. Shards partition
  /// `live`, so merges of different shards write disjoint rows and need no
  /// lock; a regraded shard simply overwrites its rows.
  void merge(std::size_t s, const FaultSimResult& sub) const {
    const auto sig = static_cast<std::size_t>(result.sig_words_per_fault);
    for (std::size_t k = 0; k < rows(s); ++k) {
      const std::size_t gi = live[s * size + k];
      result.first_detect[gi] = sub.first_detect[k];
      if (!result.window_mask.empty()) {
        result.window_mask[gi] = sub.window_mask[k];
      }
      if (!result.misr_detect.empty()) {
        result.misr_detect[gi] = sub.misr_detect[k];
      }
      if (!result.detect_patterns.empty()) {
        result.detect_patterns[gi] = sub.detect_patterns[k];
      }
      std::copy_n(sub.window_sig.begin() + static_cast<std::ptrdiff_t>(k * sig),
                  sig,
                  result.window_sig.begin() +
                      static_cast<std::ptrdiff_t>(gi * sig));
    }
  }
};

/// The fork executor's workers, forked lazily at dispatch. SIGPIPE is
/// ignored while a fleet exists (a worker dying mid-request-write is an
/// EPIPE, not the parent's death), and the destructor SIGKILLs and reaps
/// every worker left, so no exit path leaks a child.
struct ShardedFaultSim::Fleet {
  explicit Fleet(std::size_t n) : workers(n), respawn(n, 0) {}
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;
  ~Fleet() {
    for (w::Worker& wk : workers) {
      if (wk.pid > 0) ::kill(wk.pid, SIGKILL);
    }
    for (w::Worker& wk : workers) w::killWorker(wk);
  }

  w::ScopedSigpipeIgnore sigpipe;
  std::vector<w::Worker> workers;
  std::vector<char> respawn;  // slot lost a worker: its next fork respawns
};

ShardedFaultSim::ShardedFaultSim(const FaultSim& prototype,
                                 const FsimBackendOptions& opts)
    : proto_(prototype.clone()), opts_(opts) {
  if (opts_.shard_faults < 1) opts_.shard_faults = 63;
  opts_.max_shard_retries = std::max(opts_.max_shard_retries, 0);
  if (opts_.backend != FsimBackend::kResilient) {
    // kProcess throws on the first worker failure; kThreaded is unsupervised.
    opts_.max_shard_retries = 0;
    opts_.degrade_on_failure = false;
  }
}

const Netlist& ShardedFaultSim::netlist() const noexcept {
  return proto_->netlist();
}

std::unique_ptr<FaultSim> ShardedFaultSim::clone() const {
  return std::make_unique<ShardedFaultSim>(*proto_, opts_);
}

FaultSimResult ShardedFaultSim::run(std::span<const Fault> faults,
                                    const PatternSource& patterns,
                                    const FaultSimOptions& opts) {
  checkWindows(opts);
  log_ = ResilienceLog{};
  const int total_cycles =
      opts.cycles > 0 ? opts.cycles : patterns.patternCount();

  FaultSimResult result;
  result.total = faults.size();
  result.first_detect.assign(faults.size(), -1);
  result.patterns_applied = static_cast<std::size_t>(total_cycles);
  if (opts.windows > 0) result.window_mask.assign(faults.size(), 0);
  if (opts.misr) result.misr_detect.assign(faults.size(), 0);
  if (opts.windows > 0 && opts.misr) {
    result.sig_words_per_fault = (opts.windows * opts.misr->width + 63) / 64;
    result.window_sig.assign(
        faults.size() * static_cast<std::size_t>(result.sig_words_per_fault),
        0);
  }
  if (opts.record_detections > 0) {
    result.detect_patterns.assign(faults.size(), {});
  }
  if (faults.empty()) return result;

  // Windowed / MISR / dictionary records need every fault run full-length;
  // otherwise fault dropping allows the staged ladder, whose short early
  // stages retire the easy majority before anyone pays full price.
  std::vector<int> stages;
  const bool full_length =
      opts.windows > 0 || opts.misr || opts.record_detections > 0;
  if (!full_length && opts.drop_detected && opts.prepass_cycles > 0 &&
      opts.prepass_cycles < total_cycles) {
    for (int c = opts.prepass_cycles; c < total_cycles; c *= 4) {
      stages.push_back(c);
    }
  }
  stages.push_back(total_cycles);

  std::vector<std::uint32_t> live(faults.size());
  std::iota(live.begin(), live.end(), 0u);
  const auto shard = static_cast<std::size_t>(opts_.shard_faults);
  const std::size_t nworkers = std::clamp<std::size_t>(
      opts_.num_workers > 0 ? static_cast<std::size_t>(opts_.num_workers)
                            : std::thread::hardware_concurrency(),
      1, (live.size() + shard - 1) / shard);

  const bool forked = opts_.backend == FsimBackend::kProcess ||
                      opts_.backend == FsimBackend::kResilient;
  int rung = forked ? kRungProcess : kRungThreaded;
  log_.final_rung = rung;
  auto stepDown = [&](int to_rung, std::string detail) {
    log_.events.push_back(ResilienceEvent{ResilienceEvent::Kind::kDegrade,
                                          to_rung, -1, -1, 0, 0, 0,
                                          std::move(detail)});
    ++log_.degradations;
    log_.final_rung = rung = to_rung;
  };
  std::optional<Fleet> fleet;
  if (forked) fleet.emplace(nworkers);

  std::size_t stage_shards = 0;
  for (const int stage_cycles : stages) {
    FaultSimOptions wopts = opts;
    wopts.cycles = stage_cycles;
    wopts.prepass_cycles = 0;  // the stage ladder lives up here
    wopts.stall_blocks = 0;    // shard-local stalls would change results
    const Stage st{faults, patterns, live, shard, wopts, result};
    stage_shards = st.count();
    std::vector<std::size_t> todo(stage_shards);
    std::iota(todo.begin(), todo.end(), std::size_t{0});

    if (fleet) {  // the process rung
      try {
        gradeForked(*fleet, st, todo);
      } catch (const ProcessFsimError& e) {
        if (!opts_.degrade_on_failure) throw;
        fleet.reset();
        stepDown(kRungThreaded,
                 std::string("process rung abandoned after retry budget: ") +
                     e.what());
      }
    }
    if (rung == kRungThreaded && !todo.empty()) {
      try {
        // Only a supervised run has a rung to fail over to.
        if (opts_.degrade_on_failure) {
          const auto a = failpointFire(kFpResilientRung, kRungThreaded);
          if (a && a->kind == FailpointAction::Kind::kError) {
            throw std::runtime_error("injected threaded-rung failure");
          }
        }
        gradeThreaded(st, todo, nworkers);
        todo.clear();
      } catch (const std::invalid_argument&) {
        throw;  // deterministic engine error: no rung can fix it
      } catch (const std::exception& e) {
        if (!opts_.degrade_on_failure) throw;
        stepDown(kRungSerial, std::string("threaded rung failed: ") + e.what());
      }
    }
    // The serial rung regrades what is left on one thread: overwrite-merges
    // are idempotent, so rows an abandoned rung finished stay identical.
    if (!todo.empty()) gradeThreaded(st, todo, 1);

    if (stage_cycles == total_cycles) break;
    std::erase_if(live, [&](std::uint32_t i) {
      return result.first_detect[i] >= 0;
    });
    if (live.empty()) break;
  }

  // Orderly shutdown, bounded by the watchdog (reapWithGrace kills a wedged
  // worker). A worker that exits uncleanly after delivering all its results
  // cannot have changed them: an error without degradation, a logged stray
  // with it.
  if (fleet) {
    std::vector<std::uint8_t> bye;
    w::serializeShutdown(bye);
    for (w::Worker& wk : fleet->workers) {
      if (wk.pid > 0) (void)w::writeAll(wk.req_fd, bye.data(), bye.size());
    }
    const int grace = opts_.timeout_ms > 0 ? opts_.timeout_ms : 10'000;
    for (std::size_t i = 0; i < fleet->workers.size(); ++i) {
      w::Worker& wk = fleet->workers[i];
      if (wk.pid <= 0) continue;
      const int status = w::reapWithGrace(wk.pid, grace);
      wk.pid = -1;
      if (status >= 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0) {
        continue;
      }
      const std::string detail =
          "worker " + std::to_string(i) +
          " did not exit cleanly at shutdown (wait status " +
          std::to_string(status) + ")";
      if (!opts_.degrade_on_failure) {
        throw ProcessFsimError(Reason::kWorkerDied, static_cast<int>(i),
                               stage_shards, stage_shards,
                               countDetected(result), detail);
      }
      log_.events.push_back(
          ResilienceEvent{ResilienceEvent::Kind::kStrayShutdown, kRungProcess,
                          static_cast<int>(i), -1, 0, 0, 0, detail});
    }
  }

  result.detected = countDetected(result);
  return result;
}

void ShardedFaultSim::gradeThreaded(const Stage& st,
                                    const std::vector<std::size_t>& todo,
                                    std::size_t nthreads) {
  nthreads = std::min(nthreads, todo.size());
  if (engines_.size() < nthreads) engines_.resize(nthreads);
  std::atomic<std::size_t> next{0};
  std::mutex err_mu;
  std::exception_ptr err;
  auto worker = [&](std::size_t t) {
    std::vector<Fault> shard_faults;
    try {
      std::unique_ptr<FaultSim>& engine = engines_[t];
      if (engine == nullptr) engine = proto_->clone();
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= todo.size()) break;
        st.collect(todo[i], shard_faults);
        st.merge(todo[i], engine->run(shard_faults, st.patterns, st.wopts));
      }
    } catch (...) {
      next.store(todo.size(), std::memory_order_relaxed);  // stop the rest
      const std::lock_guard<std::mutex> lock(err_mu);
      if (!err) err = std::current_exception();
    }
  };
  {
    std::vector<std::jthread> pool;  // joined at scope exit, even on throw
    for (std::size_t t = 1; t < nthreads; ++t) pool.emplace_back(worker, t);
    worker(0);
  }
  if (err) std::rethrow_exception(err);
}

void ShardedFaultSim::gradeForked(Fleet& fleet, const Stage& st,
                                  std::vector<std::size_t>& left) {
  std::vector<w::Worker>& workers = fleet.workers;
  const std::size_t nshards = st.count();
  std::deque<std::size_t> pending;
  for (std::size_t s = 0; s < nshards; ++s) pending.push_back(s);
  std::vector<int> attempts(nshards, 0);
  std::vector<char> done(nshards, 0);
  std::size_t ndone = 0;
  const auto who = [](std::size_t i) { return "worker " + std::to_string(i); };

  w::WireOptions wire;
  wire.cycles = st.wopts.cycles;
  wire.windows = st.wopts.windows;
  wire.record_detections = st.wopts.record_detections;
  wire.drop_detected = st.wopts.drop_detected ? 1 : 0;
  wire.has_misr = st.wopts.misr ? 1 : 0;
  wire.has_launch = st.wopts.launch != nullptr ? 1 : 0;

  // Leave the rung; the shards not merged stay in `left` for the next one.
  auto abandon = [&](int worker, Reason reason, const std::string& detail) {
    left.clear();
    for (std::size_t s = 0; s < nshards; ++s) {
      if (done[s] == 0) left.push_back(s);
    }
    throw ProcessFsimError(reason, worker, ndone, nshards,
                           countDetected(st.result), detail);
  };
  // Kill the worker, requeue its shard and pay the backoff, or abandon the
  // rung once the shard has used up its retries.
  auto retry = [&](std::size_t i, std::size_t s, Reason reason,
                   const std::string& detail) {
    w::killWorker(workers[i]);
    fleet.respawn[i] = 1;
    pending.push_front(s);
    const int attempt = ++attempts[s];
    const bool again = attempt <= opts_.max_shard_retries;
    const int backoff = again ? backoffMs(opts_.backoff_base_ms, attempt) : 0;
    log_.events.push_back(ResilienceEvent{
        ResilienceEvent::Kind::kRetry, kRungProcess, static_cast<int>(i),
        static_cast<std::int64_t>(s), st.wopts.cycles, attempt, backoff,
        detail});
    ++log_.retries;
    if (!again) {
      abandon(static_cast<int>(i), reason,
              detail + " (retry budget of " +
                  std::to_string(opts_.max_shard_retries) + " exhausted)");
    }
    failpointSleepMs(backoff);
  };

  // Fill idle slots from the queue, forking a worker into each empty one.
  std::vector<std::uint8_t> msg;
  std::vector<Fault> shard_faults;
  auto dispatch = [&] {
    for (std::size_t i = 0; i < workers.size() && !pending.empty(); ++i) {
      w::Worker& wk = workers[i];
      if (wk.shard >= 0) continue;  // busy
      const std::size_t s = pending.front();
      pending.pop_front();
      if (wk.pid <= 0) {
        if (!w::spawnWorker(workers, i, *proto_, st.patterns, st.wopts)) {
          retry(i, s, Reason::kWorkerDied,
                "pipe()/fork() failed spawning " + who(i));
          continue;
        }
        if (fleet.respawn[i] != 0) {
          log_.events.push_back(ResilienceEvent{
              ResilienceEvent::Kind::kRespawn, kRungProcess,
              static_cast<int>(i), static_cast<std::int64_t>(s),
              st.wopts.cycles, attempts[s], 0,
              "fresh worker forked into slot " + std::to_string(i)});
          ++log_.respawns;
        }
      }
      st.collect(s, shard_faults);
      // Worker-side injections are consumed here, in the supervising
      // process, and shipped inside the frame — so a re-dispatch of this
      // shard runs clean once the armed entry is spent.
      w::WireOptions send = wire;
      std::optional<FailpointAction> req_inject;
      if (failpointsArmed()) {
        const auto index = static_cast<std::int64_t>(i);
        const auto seq = static_cast<std::int64_t>(s);
        if (const auto a = failpointFire(w::kFpWorkerShard, index, seq)) {
          send.inject_shard = w::WireInject::from(*a);
        }
        if (const auto a = failpointFire(w::kFpWorkerReply, index, seq)) {
          send.inject_reply = w::WireInject::from(*a);
        }
        req_inject = failpointFire(w::kFpRequestFrame, index, seq);
      }
      w::serializeShardRequest(msg, static_cast<std::uint32_t>(s), send,
                               shard_faults);
      if (!w::writeFrameInjected(wk.req_fd, msg,
                                 req_inject ? &*req_inject : nullptr, s)) {
        retry(i, s, Reason::kWorkerDied,
              "shard request write failed (" + who(i) + " dead, EPIPE)");
        continue;
      }
      wk.shard = static_cast<std::int64_t>(s);
      wk.deadline = w::Deadline::after(opts_.timeout_ms);
    }
  };

  // Read and merge worker i's reply to shard s; a transport failure comes
  // back as {reason, detail}, an engine rejection throws.
  struct Failure {
    Reason reason;
    std::string detail;
  };
  std::vector<std::uint8_t> payload;
  auto receive = [&](std::size_t i, std::size_t s) -> std::optional<Failure> {
    w::Worker& wk = workers[i];
    // The response fd is non-blocking: these reads poll against the
    // worker's monotonic deadline, so a dribbled frame either completes in
    // budget or fails as kTimeout.
    const auto io = [&](w::IoStatus status,
                        const char* what) -> std::optional<Failure> {
      if (status == w::IoStatus::kOk) return std::nullopt;
      if (status == w::IoStatus::kTimeout) {
        return Failure{Reason::kTimeout,
                       who(i) + " dribbled a " + what + " past the " +
                           std::to_string(opts_.timeout_ms) + " ms deadline"};
      }
      const std::string died = who(i) + " closed its response pipe mid-";
      return Failure{Reason::kWorkerDied, died + what + " (crashed or killed)"};
    };
    std::uint32_t hdr[w::kHeaderWords];
    if (auto f = io(w::readAllDeadline(wk.resp_fd, hdr, sizeof hdr,
                                       wk.deadline),
                    "header")) {
      return f;
    }
    if (!w::headerOk(hdr, w::kRespMagic)) {
      return Failure{Reason::kProtocol, "bad response framing from " + who(i)};
    }
    payload.resize(hdr[2]);
    if (auto f = io(w::readAllDeadline(wk.resp_fd, payload.data(),
                                       payload.size(), wk.deadline),
                    "payload")) {
      return f;
    }
    if (w::fnv1a(payload.data(), payload.size()) != hdr[3]) {
      return Failure{Reason::kProtocol,
                     "response payload checksum mismatch from " + who(i) +
                         " (corrupted frame)"};
    }
    if (hdr[1] == w::kStatusEngineError) {
      // Deterministic engine rejection: never retried, surfaced as the
      // engine's own error type like every other backend.
      throw std::invalid_argument(std::string(payload.begin(), payload.end()));
    }
    w::Cursor c{payload.data(), payload.data() + payload.size()};
    FaultSimResult sub;
    if (hdr[1] != w::kStatusOk || c.get<std::uint32_t>() != s ||
        !w::parseResult(c, st.rows(s), sub) || !st.fits(s, sub)) {
      return Failure{Reason::kProtocol, "malformed reply from " + who(i)};
    }
    st.merge(s, sub);
    return std::nullopt;
  };

  std::vector<pollfd> pfds;
  std::vector<std::size_t> pidx;
  while (ndone < nshards) {
    dispatch();
    pfds.clear();
    pidx.clear();
    int wait_ms = -1;
    for (std::size_t i = 0; i < workers.size(); ++i) {
      if (workers[i].shard < 0) continue;
      pfds.push_back(pollfd{workers[i].resp_fd, POLLIN, 0});
      pidx.push_back(i);
      const int rem = workers[i].deadline.remainingMs();
      if (rem >= 0) wait_ms = wait_ms < 0 ? rem : std::min(wait_ms, rem);
    }
    if (pfds.empty()) continue;  // everything requeued; re-dispatch
    const int rc = ::poll(pfds.data(), pfds.size(), wait_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      // A parent-side resource problem, not a worker fault: no retry.
      abandon(-1, Reason::kProtocol, "poll() failed in supervisor");
    }
    if (rc == 0) {
      // Watchdog: deadlines are armed at dispatch, so wakeups between
      // partial progress cannot push them out.
      for (const std::size_t i : pidx) {
        if (workers[i].shard >= 0 && workers[i].deadline.expired()) {
          retry(i, static_cast<std::size_t>(workers[i].shard),
                Reason::kTimeout,
                who(i) + " produced no complete response within " +
                    std::to_string(opts_.timeout_ms) + " ms of dispatch");
        }
      }
      continue;
    }
    for (std::size_t k = 0; k < pfds.size(); ++k) {
      if ((pfds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const std::size_t i = pidx[k];
      const auto s = static_cast<std::size_t>(workers[i].shard);
      // One failure per wakeup keeps the bookkeeping simple; other ready
      // replies are picked up on the next poll.
      if (const auto f = receive(i, s)) {
        retry(i, s, f->reason, f->detail);
        break;
      }
      done[s] = 1;
      ++ndone;
      workers[i].shard = -1;
    }
  }
  left.clear();
}

}  // namespace corebist
