// Internal wire protocol + worker plumbing of ShardedFaultSim's fork
// executor (fault/sharded_fsim.hpp); the service's report stream reuses
// the framing.
//
// Not a public API: this header holds the frames, the worker loop and the
// spawn/reap discipline, and carries the worker-side failure injections
// *in the frames themselves*.
//
// Frame format. Every message is a 20-byte header
//
//   {u32 magic, u32 kind_or_status, u32 payload_bytes, u32 fnv1a(payload),
//    u32 fnv1a(the four words before it)}
//
// followed by the payload. Both ends are forks of the same binary, so POD
// fields are memcpy'd in native byte order without cross-ABI concern. The
// payloads:
//
//   shard request  u32 shard id, i32 stage cycles, the two injections (u8
//                  kind, i32 delay_ms, i32 jitter_ms, u64 arg each), u32
//                  fault count, then per fault u32 net, u32 gate, u8 pin,
//                  u8 kind. Everything else the worker grades with (netlist,
//                  pattern sources, the stage's FaultSimOptions) is in its
//                  fork-time snapshot.
//   shutdown       empty.
//   ok reply       u32 shard id, then the rows of FaultSimResult(rows,
//                  options) in field order: first_detect, window_mask,
//                  misr_detect, window_sig, and per fault a u32 count and
//                  that many detection indices. Both ends derive which rows
//                  exist from the same (rows, options), so nothing in the
//                  payload describes its layout, and the parent rejects a
//                  header announcing more than maxReplyBytes before it
//                  allocates.
//   engine error   the engine's what(), cut to kMaxEngineErrorBytes.
//
// The framing and the FNV-1a checksums exist so transport corruption (a
// failpoint bit-flip today, a flaky remote link tomorrow) is *detected* — a
// corrupted frame surfaces as a structured protocol error, never as
// silently wrong grading results. The header checksum is verified before
// the length is trusted, so a flipped length bit is caught at once instead
// of sizing a buffer and waiting for bytes that never come; kMaxFrameBytes
// bounds what an intact header may announce.
//
// Failpoint transport. Worker-side injections ("kill worker N at shard K",
// "stall the reply past the watchdog", "truncate/bit-flip the response")
// are evaluated by the PARENT at dispatch time — consuming the armed
// entry's hit budget in the parent's registry — and shipped to the worker
// inside the shard request. A retried dispatch of the same shard therefore
// re-runs clean once the entry is spent, which is what makes injected
// failure schedules deterministic and retry convergence provable.
//
// Robustness contract:
//   * writeAll / readAll resume on EINTR and handle short transfers, so a
//     dribbled or page-split frame reassembles transparently;
//   * parent-side reads go through readAllDeadline() on a non-blocking fd
//     against a monotonic deadline, so a worker dribbling bytes slower than
//     the watchdog cannot evade it by resetting per-wakeup timers;
//   * ScopedSigpipeBlock keeps a worker dying mid-request-write an EPIPE
//     (=> structured kWorkerDied), not a fatal SIGPIPE in the campaign
//     parent. It blocks SIGPIPE on the writing thread only, never touching
//     the process-wide disposition, so concurrent runs and report-stream
//     writes on other threads cannot unprotect each other; workers install
//     SIG_IGN (each is a single-threaded fork), so a dead parent surfaces as
//     a write error and a clean _exit.
#ifndef COREBIST_FAULT_PROCESS_WIRE_HPP_
#define COREBIST_FAULT_PROCESS_WIRE_HPP_

#include <fcntl.h>
#include <poll.h>
#include <pthread.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <string_view>
#include <type_traits>
#include <vector>

#include "fault/failpoint.hpp"
#include "fault/fault_sim.hpp"

namespace corebist::fsimwire {

constexpr std::uint32_t kReqMagic = 0xC0B15701u;
constexpr std::uint32_t kRespMagic = 0xC0B15702u;
constexpr std::uint32_t kMsgShard = 1;
constexpr std::uint32_t kMsgShutdown = 2;
constexpr std::uint32_t kStatusOk = 0;
constexpr std::uint32_t kStatusEngineError = 1;
// magic, kind, payload_bytes, fnv1a(payload), fnv1a(header words 0-3)
constexpr std::size_t kHeaderWords = 5;
constexpr std::size_t kHeaderBytes = kHeaderWords * sizeof(std::uint32_t);
/// A frame announcing a larger payload is corruption, not a real message.
constexpr std::uint32_t kMaxFrameBytes = 1u << 30;
/// Longest engine-error reply; serializeEngineError cuts what() to it.
constexpr std::size_t kMaxEngineErrorBytes = 4096;

// Failpoint site names compiled into the fork executor. process.* sites
// pass FailpointContext{worker index, shard id}.
inline constexpr const char* kFpWorkerShard = "process.worker.shard";
inline constexpr const char* kFpWorkerReply = "process.worker.reply";
inline constexpr const char* kFpRequestFrame = "process.request.frame";

[[nodiscard]] inline std::uint32_t fnv1a(const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t h = 0x811C9DC5u;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x01000193u;
  }
  return h;
}

// ---- raw I/O -------------------------------------------------------------

inline bool writeAll(int fd, const void* buf, std::size_t n) {
  const char* p = static_cast<const char*>(buf);
  while (n > 0) {
    const ssize_t k = ::write(fd, p, n);
    if (k < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

inline bool readAll(int fd, void* buf, std::size_t n) {
  char* p = static_cast<char*>(buf);
  while (n > 0) {
    const ssize_t k = ::read(fd, p, n);
    if (k < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (k == 0) return false;  // EOF: peer died
    p += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

/// Monotonic deadline: the watchdog budget is measured from when it was
/// armed, across any number of poll() wakeups, EINTRs and partial reads —
/// a slow-dribbling peer cannot reset it.
struct Deadline {
  std::chrono::steady_clock::time_point at{};
  bool unbounded = true;

  [[nodiscard]] static Deadline after(int ms) {
    Deadline d;
    if (ms > 0) {
      d.unbounded = false;
      d.at = std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
    }
    return d;
  }

  /// Milliseconds left, clamped to >= 0; -1 when unbounded.
  [[nodiscard]] int remainingMs() const {
    if (unbounded) return -1;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          at - std::chrono::steady_clock::now())
                          .count();
    if (left <= 0) return 0;
    return left > 0x7FFFFFFF ? 0x7FFFFFFF : static_cast<int>(left);
  }

  [[nodiscard]] bool expired() const {
    return !unbounded && remainingMs() == 0;
  }
};

enum class IoStatus : std::uint8_t { kOk, kEof, kTimeout, kError };

inline bool setNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// Read exactly `n` bytes from a non-blocking fd, polling against `dl`.
/// Distinguishes peer death (kEof), watchdog expiry (kTimeout) and hard I/O
/// errors (kError) so callers can map each to the right structured failure.
inline IoStatus readAllDeadline(int fd, void* buf, std::size_t n,
                                const Deadline& dl) {
  char* p = static_cast<char*>(buf);
  while (n > 0) {
    const ssize_t k = ::read(fd, p, n);
    if (k > 0) {
      p += k;
      n -= static_cast<std::size_t>(k);
      continue;
    }
    if (k == 0) return IoStatus::kEof;
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) return IoStatus::kError;
    const int rem = dl.remainingMs();
    if (rem == 0) return IoStatus::kTimeout;
    pollfd pf{fd, POLLIN, 0};
    const int rc = ::poll(&pf, 1, rem);
    if (rc < 0 && errno != EINTR) return IoStatus::kError;
    if (rc == 0) return IoStatus::kTimeout;
  }
  return IoStatus::kOk;
}

/// SIGPIPE blocked on the calling thread for the lifetime of the scope: a
/// write to a pipe whose reader is gone (a worker dying mid-request, a
/// tenant closing its report stream) fails with EPIPE instead of killing
/// the process. The mask is per thread, so no other thread's scope can undo
/// it; a process-wide SIG_IGN, saved and restored by each scope, could be
/// restored to SIG_DFL by one thread while another was still writing. On
/// exit the SIGPIPE that this scope's failed writes left pending is
/// consumed, then the previous mask returns; a scope nested in another
/// leaves both to the outer one.
class ScopedSigpipeBlock {
 public:
  ScopedSigpipeBlock() {
    const sigset_t pipe = onlySigpipe();
    ::pthread_sigmask(SIG_BLOCK, &pipe, &prev_);
  }
  ~ScopedSigpipeBlock() {
    // Blocked already: the outer scope consumes and unblocks.
    if (sigismember(&prev_, SIGPIPE) == 1) return;
    const int saved_errno = errno;
    const sigset_t pipe = onlySigpipe();
    const timespec now{};
    int sig = 0;
    do {
      sig = ::sigtimedwait(&pipe, nullptr, &now);
    } while (sig == SIGPIPE || (sig < 0 && errno == EINTR));
    ::pthread_sigmask(SIG_SETMASK, &prev_, nullptr);
    errno = saved_errno;
  }
  ScopedSigpipeBlock(const ScopedSigpipeBlock&) = delete;
  ScopedSigpipeBlock& operator=(const ScopedSigpipeBlock&) = delete;

 private:
  static sigset_t onlySigpipe() {
    sigset_t s;
    sigemptyset(&s);
    sigaddset(&s, SIGPIPE);
    return s;
  }

  sigset_t prev_ = {};
};

// ---- serialization -------------------------------------------------------

template <typename T>
void putPod(std::vector<std::uint8_t>& b, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
  b.insert(b.end(), p, p + sizeof(T));
}

inline void putBytes(std::vector<std::uint8_t>& b, const void* p,
                     std::size_t n) {
  if (n == 0) return;  // an empty vector's data() may be null
  const auto* q = static_cast<const std::uint8_t*>(p);
  b.insert(b.end(), q, q + n);
}

template <typename T>
void putVec(std::vector<std::uint8_t>& b, const std::vector<T>& v) {
  putBytes(b, v.data(), v.size() * sizeof(T));
}

/// Bounds-checked payload reader; `ok` latches false on any overrun so a
/// truncated payload parses to garbage-free defaults instead of OOB reads.
struct Cursor {
  const std::uint8_t* p;
  const std::uint8_t* end;
  bool ok = true;

  [[nodiscard]] std::size_t left() const {
    return static_cast<std::size_t>(end - p);
  }

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    T v{};
    if (!ok || left() < sizeof(T)) {
      ok = false;
      return v;
    }
    std::memcpy(&v, p, sizeof(T));
    p += sizeof(T);
    return v;
  }

  bool getBytes(void* dst, std::size_t n) {
    if (!ok || left() < n) {
      ok = false;
      return false;
    }
    if (n > 0) std::memcpy(dst, p, n);  // an empty vector's data() may be null
    p += n;
    return true;
  }

  /// Read `n` elements into `v`; the size is checked against the bytes
  /// left before anything is allocated.
  template <typename T>
  bool getVec(std::vector<T>& v, std::size_t n) {
    if (!ok || left() / sizeof(T) < n) {
      ok = false;
      return false;
    }
    v.resize(n);
    return getBytes(v.data(), n * sizeof(T));
  }

  /// Read exactly `v.size()` elements into `v`.
  template <typename T>
  bool getAll(std::vector<T>& v) {
    return getBytes(v.data(), v.size() * sizeof(T));
  }
};

/// Start a frame: magic and kind, then header words that sealFrame fills.
inline void beginFrame(std::vector<std::uint8_t>& out, std::uint32_t magic,
                       std::uint32_t kind) {
  out.clear();
  putPod(out, magic);
  putPod(out, kind);
  out.resize(kHeaderBytes);
}

/// Backpatch payload size and both checksums into a frame assembled as
/// [header][payload] by beginFrame.
inline void sealFrame(std::vector<std::uint8_t>& frame) {
  std::uint32_t hdr[kHeaderWords];
  std::memcpy(hdr, frame.data(), kHeaderBytes);
  hdr[2] = static_cast<std::uint32_t>(frame.size() - kHeaderBytes);
  hdr[3] = fnv1a(frame.data() + kHeaderBytes, hdr[2]);
  hdr[4] = fnv1a(hdr, 4 * sizeof(std::uint32_t));
  std::memcpy(frame.data(), hdr, kHeaderBytes);
}

/// True when `hdr` is an intact header of a `magic` frame announcing at
/// most kMaxFrameBytes: checked before the payload length is used.
[[nodiscard]] inline bool headerOk(const std::uint32_t (&hdr)[kHeaderWords],
                                   std::uint32_t magic) {
  return hdr[4] == fnv1a(hdr, 4 * sizeof(std::uint32_t)) &&
         hdr[0] == magic && hdr[2] <= kMaxFrameBytes;
}

/// Worker-side injected action carried inside a shard request (see the
/// failpoint-transport note in the header comment).
struct WireInject {
  std::uint8_t kind = 0;  // FailpointAction::Kind
  std::int32_t delay_ms = 0;
  std::int32_t jitter_ms = 0;
  std::uint64_t arg = 0;

  [[nodiscard]] static WireInject from(const FailpointAction& a) {
    return WireInject{static_cast<std::uint8_t>(a.kind), a.delay_ms,
                      a.jitter_ms, a.arg};
  }
  [[nodiscard]] FailpointAction action() const {
    FailpointAction a;
    a.kind = static_cast<FailpointAction::Kind>(kind);
    a.delay_ms = delay_ms;
    a.jitter_ms = jitter_ms;
    a.arg = arg;
    return a;
  }
};

/// What a shard request carries besides its faults: the stage budget, the
/// one option that varies between the stages a worker lives through, plus
/// the parent-evaluated failure injections for this dispatch.
struct WireOptions {
  std::int32_t cycles = 0;
  WireInject inject_shard;  // applied on shard receipt (crash/hang/delay)
  WireInject inject_reply;  // applied around the response frame
};

inline void putInject(std::vector<std::uint8_t>& out, const WireInject& w) {
  putPod(out, w.kind);
  putPod(out, w.delay_ms);
  putPod(out, w.jitter_ms);
  putPod(out, w.arg);
}

inline WireInject getInject(Cursor& c) {
  WireInject w;
  w.kind = c.get<std::uint8_t>();
  w.delay_ms = c.get<std::int32_t>();
  w.jitter_ms = c.get<std::int32_t>();
  w.arg = c.get<std::uint64_t>();
  return w;
}

inline void serializeShardRequest(std::vector<std::uint8_t>& out,
                                  std::uint32_t shard_id,
                                  const WireOptions& wopts,
                                  std::span<const Fault> shard_faults) {
  beginFrame(out, kReqMagic, kMsgShard);
  putPod(out, shard_id);
  putPod(out, wopts.cycles);
  putInject(out, wopts.inject_shard);
  putInject(out, wopts.inject_reply);
  putPod(out, static_cast<std::uint32_t>(shard_faults.size()));
  for (const Fault& f : shard_faults) {
    putPod(out, static_cast<std::uint32_t>(f.net));
    putPod(out, static_cast<std::uint32_t>(f.gate));
    putPod(out, f.pin);
    putPod(out, static_cast<std::uint8_t>(f.kind));
  }
  sealFrame(out);
}

/// Wire bytes of one fault in a shard request: net, gate, pin, kind.
constexpr std::size_t kFaultWireBytes = 2 * sizeof(std::uint32_t) + 2;

/// Inverse of serializeShardRequest past the header. False on truncation or
/// trailing bytes; the fault count is checked against the bytes left before
/// anything is reserved.
inline bool parseShardRequest(Cursor& c, std::uint32_t& shard_id,
                              WireOptions& wopts, std::vector<Fault>& faults) {
  shard_id = c.get<std::uint32_t>();
  wopts.cycles = c.get<std::int32_t>();
  wopts.inject_shard = getInject(c);
  wopts.inject_reply = getInject(c);
  const auto n = c.get<std::uint32_t>();
  faults.clear();
  if (!c.ok || c.left() / kFaultWireBytes < n) return false;
  faults.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    Fault f;
    f.net = c.get<std::uint32_t>();
    f.gate = c.get<std::uint32_t>();
    f.pin = c.get<std::uint8_t>();
    f.kind = static_cast<FaultKind>(c.get<std::uint8_t>());
    faults.push_back(f);
  }
  return c.ok && c.p == c.end;
}

inline void serializeShutdown(std::vector<std::uint8_t>& out) {
  beginFrame(out, kReqMagic, kMsgShutdown);
  sealFrame(out);
}

/// `sub` must have the shape of FaultSimResult(rows, options) for the
/// options the parent decodes with; every engine result does.
inline void serializeResult(std::vector<std::uint8_t>& out,
                            std::uint32_t shard_id,
                            const FaultSimResult& sub) {
  beginFrame(out, kRespMagic, kStatusOk);
  putPod(out, shard_id);
  putVec(out, sub.first_detect);
  putVec(out, sub.window_mask);
  putVec(out, sub.misr_detect);
  putVec(out, sub.window_sig);
  for (const auto& list : sub.detect_patterns) {
    putPod(out, static_cast<std::uint32_t>(list.size()));
    putVec(out, list);
  }
  sealFrame(out);
}

/// Inverse of serializeResult past the shard id: decode the reply for a
/// shard of `rows` faults graded under `opts` into `sub`, which gets the
/// shape of FaultSimResult(rows, opts). False on truncation, trailing bytes
/// or a detection list longer than `opts.record_detections`.
inline bool parseResult(Cursor& c, std::size_t rows,
                        const FaultSimOptions& opts, FaultSimResult& sub) {
  sub = FaultSimResult(rows, opts);
  c.getAll(sub.first_detect);
  c.getAll(sub.window_mask);
  c.getAll(sub.misr_detect);
  c.getAll(sub.window_sig);
  for (auto& list : sub.detect_patterns) {
    const auto n = c.get<std::uint32_t>();
    if (n > static_cast<std::uint32_t>(opts.record_detections) ||
        !c.getVec(list, n)) {
      return false;
    }
  }
  sub.recountDetected();
  return c.ok && c.p == c.end;
}

/// Largest ok-reply payload for a shard of `rows` faults graded under
/// `opts`: the shard id, the rows of FaultSimResult(rows, opts) and every
/// detection list full.
inline std::size_t maxReplyBytes(std::size_t rows,
                                 const FaultSimOptions& opts) {
  const FaultSimResult shape(rows, opts);
  const auto bytes = [](const auto& v) {
    return v.size() * sizeof(v.front());
  };
  return sizeof(std::uint32_t) + bytes(shape.first_detect) +
         bytes(shape.window_mask) + bytes(shape.misr_detect) +
         bytes(shape.window_sig) +
         shape.detect_patterns.size() * sizeof(std::uint32_t) *
             (1 + static_cast<std::size_t>(opts.record_detections));
}

inline void serializeEngineError(std::vector<std::uint8_t>& out,
                                 const char* what) {
  beginFrame(out, kRespMagic, kStatusEngineError);
  const std::string_view msg =
      std::string_view(what).substr(0, kMaxEngineErrorBytes);
  putBytes(out, msg.data(), msg.size());
  sealFrame(out);
}

// ---- failpoint-aware frame writing ---------------------------------------

/// Write `frame`, applying an optional injected data-plane action first:
/// truncate (emit only `arg` bytes), bitflip (corrupt one bit — the FNV
/// checksum turns this into a detected protocol error on the far side),
/// shortwrite (dribble the frame in tiny partial writes — which the
/// receiving readAll/readAllDeadline loops must reassemble transparently)
/// or delay. Returns false on a hard write error (e.g. EPIPE: peer dead).
inline bool writeFrameInjected(int fd, const std::vector<std::uint8_t>& frame,
                               const FailpointAction* inject,
                               std::uint64_t ordinal) {
  using Kind = FailpointAction::Kind;
  if (inject == nullptr || inject->kind == Kind::kOff) {
    return writeAll(fd, frame.data(), frame.size());
  }
  switch (inject->kind) {
    case Kind::kDelay:
      failpointSleepMs(inject->delay_ms + failpointJitterMs(*inject, ordinal));
      return writeAll(fd, frame.data(), frame.size());
    case Kind::kTruncate: {
      const std::size_t n =
          std::min<std::size_t>(frame.size(), inject->arg);
      return writeAll(fd, frame.data(), n);  // rest intentionally withheld
    }
    case Kind::kBitflip: {
      std::vector<std::uint8_t> bad(frame);
      const std::uint64_t bit = inject->arg % (bad.size() * 8);
      bad[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      return writeAll(fd, bad.data(), bad.size());
    }
    case Kind::kShortWrite: {
      // Dribble: 1 byte, then 7, then the rest, with small sleeps between —
      // the far side's reassembly loops must make this invisible.
      std::size_t off = 0;
      for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                      frame.size()}) {
        const std::size_t n = std::min(frame.size() - off, chunk);
        if (n == 0) break;
        if (!writeAll(fd, frame.data() + off, n)) return false;
        off += n;
        if (off < frame.size()) failpointSleepMs(1);
      }
      return true;
    }
    default:
      return writeAll(fd, frame.data(), frame.size());
  }
}

// ---- worker side ---------------------------------------------------------

/// Request/grade/respond loop of one forked worker. Campaign state
/// (netlist, pattern sources, the stage options `base`) is already in this
/// process via the fork snapshot; only shards, the stage budget and the
/// parent-evaluated failure injections arrive over the pipe. Never returns:
/// _exit(0) on shutdown, _exit(1) on any protocol violation (the parent
/// turns the EOF into a structured error), _exit(42) on an injected crash.
/// _exit skips atexit/sanitizer teardown, which is exactly right for a fork
/// without exec.
[[noreturn]] inline void workerMain(int req_fd, int resp_fd,
                                    const FaultSim& proto,
                                    const PatternSource& patterns,
                                    const FaultSimOptions& base) {
  using Kind = FailpointAction::Kind;
  // A dead parent must surface as EPIPE on the reply write (=> _exit(1)),
  // not SIGPIPE; no restore — this process only ever _exit()s.
  std::signal(SIGPIPE, SIG_IGN);
  std::unique_ptr<FaultSim> engine;  // cloned on first shard (private scratch)
  std::vector<std::uint8_t> buf;
  std::vector<std::uint8_t> out;
  std::vector<Fault> shard_faults;
  FaultSimOptions wopts = base;
  for (;;) {
    std::uint32_t hdr[kHeaderWords];
    if (!readAll(req_fd, hdr, sizeof hdr) || !headerOk(hdr, kReqMagic)) {
      _exit(1);
    }
    if (hdr[1] == kMsgShutdown) _exit(0);
    if (hdr[1] != kMsgShard) _exit(1);
    buf.resize(hdr[2]);
    if (!readAll(req_fd, buf.data(), buf.size())) _exit(1);
    // A corrupted request frame (injected bit-flip today, link noise in a
    // remote transport tomorrow) must never grade garbage: die loudly and
    // let the supervisor retry the shard on a fresh worker.
    if (fnv1a(buf.data(), buf.size()) != hdr[3]) _exit(1);

    Cursor c{buf.data(), buf.data() + buf.size()};
    std::uint32_t shard_id = 0;
    WireOptions w;
    if (!parseShardRequest(c, shard_id, w, shard_faults)) _exit(1);

    // Injected receipt action ("kill worker N before shard K" / stall).
    const FailpointAction on_shard = w.inject_shard.action();
    switch (on_shard.kind) {
      case Kind::kCrash:
        _exit(42);
      case Kind::kHang:
        for (;;) pause();
      case Kind::kDelay:
        failpointSleepMs(on_shard.delay_ms +
                         failpointJitterMs(on_shard, shard_id));
        break;
      default:
        break;
    }

    wopts.cycles = w.cycles;
    if (engine == nullptr) engine = proto.clone();
    try {
      serializeResult(out, shard_id,
                      engine->run(shard_faults, patterns, wopts));
    } catch (const std::exception& e) {
      serializeEngineError(out, e.what());
    }

    // Injected reply action. writeFrameInjected applies the frame actions
    // (delay, truncate, bitflip, shortwrite); the worker adds the process
    // ones: hang instead of replying, die after a truncated frame, crash
    // after the reply.
    const FailpointAction on_reply = w.inject_reply.action();
    if (on_reply.kind == Kind::kHang) {
      for (;;) pause();  // reply never comes; the watchdog must fire
    }
    if (!writeFrameInjected(resp_fd, out, &on_reply, shard_id) ||
        on_reply.kind == Kind::kTruncate) {
      _exit(1);
    }
    if (on_reply.kind == Kind::kCrash) _exit(42);  // "after shard K"
  }
}

// ---- parent side ---------------------------------------------------------

struct Worker {
  pid_t pid = -1;
  int req_fd = -1;
  int resp_fd = -1;
  std::int64_t shard = -1;  // shard in flight, -1 when idle
  Deadline deadline;        // watchdog for the in-flight shard
};

inline void closeWorkerFds(Worker& w) {
  if (w.req_fd >= 0) ::close(w.req_fd);
  if (w.resp_fd >= 0) ::close(w.resp_fd);
  w.req_fd = w.resp_fd = -1;
}

/// Reap one child without risking a parent hang: poll with WNOHANG until
/// `grace_ms` expires, then SIGKILL and reap for certain. Returns the raw
/// wait status (or -1 if the child had to be killed here).
inline int reapWithGrace(pid_t pid, int grace_ms) {
  const int step_ms = 2;
  int waited = 0;
  for (;;) {
    int st = 0;
    const pid_t r = ::waitpid(pid, &st, WNOHANG);
    if (r == pid) return st;
    if (r < 0 && errno != EINTR) return -1;  // already reaped / gone
    if (grace_ms > 0 && waited >= grace_ms) {
      ::kill(pid, SIGKILL);
      while (::waitpid(pid, &st, 0) < 0 && errno == EINTR) {
      }
      return -1;
    }
    struct timespec ts {0, step_ms * 1'000'000};
    ::nanosleep(&ts, nullptr);
    waited += step_ms;
  }
}

/// SIGKILL + reap one worker and close its pipes (no-op when empty).
inline void killWorker(Worker& w) {
  if (w.pid > 0) {
    ::kill(w.pid, SIGKILL);
    reapWithGrace(w.pid, 0);
    w.pid = -1;
  }
  closeWorkerFds(w);
  w.shard = -1;
}

/// Fork worker `i` of the fleet: fresh pipes, sibling fds closed in the
/// child (inherited sibling pipes would hold them open past a sibling's
/// death and mask the EOF), parent's response end set non-blocking for
/// deadline reads. Returns false on pipe()/fork() failure with nothing
/// allocated; the caller owns fleet-level cleanup.
inline bool spawnWorker(std::vector<Worker>& workers, std::size_t i,
                        const FaultSim& proto, const PatternSource& patterns,
                        const FaultSimOptions& base) {
  int req[2] = {-1, -1};
  int resp[2] = {-1, -1};
  if (::pipe(req) != 0) return false;
  if (::pipe(resp) != 0) {
    ::close(req[0]);
    ::close(req[1]);
    return false;
  }
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::close(req[1]);
    ::close(resp[0]);
    for (std::size_t j = 0; j < workers.size(); ++j) {
      if (j != i) closeWorkerFds(workers[j]);
    }
    workerMain(req[0], resp[1], proto, patterns, base);
  }
  ::close(req[0]);
  ::close(resp[1]);
  if (pid < 0) {
    ::close(req[1]);
    ::close(resp[0]);
    return false;
  }
  (void)setNonBlocking(resp[0]);
  workers[i] = Worker{pid, req[1], resp[0], -1, Deadline{}};
  return true;
}

}  // namespace corebist::fsimwire

#endif  // COREBIST_FAULT_PROCESS_WIRE_HPP_
