// Streaming campaign results over the checksummed wire format.
//
// A resident CampaignService serves tenants that want results as they form,
// not one blocking SessionReport at the end. WireReportStream is a
// SessionObserver that serializes every campaign event — including each
// finished CoreReport as incremental JSON and the final SessionReport — as
// a framed, checksummed message on a file descriptor (a pipe to the tenant
// today, a socket tomorrow).
//
// Frames reuse the exact shape of the process-backend wire protocol
// (fault/process_wire.hpp): a 20-byte header
//
//   {u32 magic = 0xC0B15703, u32 event kind, u32 payload_bytes,
//    u32 fnv1a(payload), u32 fnv1a(the four words before it)}
//
// followed by the payload: a u64 campaign id, then the event's JSON text.
// The campaign id rides in every frame because one fd may carry interleaved
// streams from many concurrent campaigns; the FNV-1a payload checksum makes
// transport corruption a structured decode error, never silently wrong
// results. Every frame of every stream in the process is written under one
// process-wide lock, so frames never shear mid-frame: not those of one
// campaign's worker threads, and not those of campaigns whose streams
// share one descriptor. (A frame larger than PIPE_BUF is not written
// atomically by the kernel, so a per-stream lock could not promise that.)
// The campaign's ObserverList already orders its own events; the lock
// only keeps whole frames apart. The price: a tenant that stops draining
// its descriptor without closing it stalls every stream's writes.
#ifndef COREBIST_SERVICE_REPORT_STREAM_HPP_
#define COREBIST_SERVICE_REPORT_STREAM_HPP_

#include <cstdint>
#include <string>

#include "core/session_observer.hpp"

namespace corebist {

/// Event kinds carried in the frame header, one per SessionObserver
/// callback. Every stream ends with exactly one terminal frame:
/// kCampaignFinish (the whole report) for a completed campaign,
/// kCampaignEnd (`{"state", "error"}`) for a failed or cancelled one.
enum class StreamEventKind : std::uint32_t {
  kCampaignStart = 1,
  kChannelPlaced = 2,
  kCoreStart = 3,
  kCoreTimeout = 4,
  kChannelFailure = 5,
  kCoreQuarantined = 6,
  kCoreFinish = 7,
  kCampaignFinish = 8,
  kCampaignEnd = 9,
};

[[nodiscard]] const char* streamEventKindName(StreamEventKind k) noexcept;

/// Magic word of report-stream frames (next to the process-backend's
/// kReqMagic/kRespMagic so a frame on the wrong pipe is detected).
inline constexpr std::uint32_t kReportStreamMagic = 0xC0B15703u;

/// SessionObserver that frames every event onto `fd`. The stream does not
/// own the descriptor — the tenant opened it, the tenant closes it (after
/// awaiting the campaign). Write errors (EPIPE: reader gone) latch the
/// stream into a dropped state and are otherwise ignored: a tenant
/// abandoning its stream must never fail the campaign. Each frame write
/// blocks SIGPIPE on the writing thread only (fsimwire::ScopedSigpipeBlock),
/// so it cannot unprotect a fork fleet's writes on another thread, nor
/// they it.
class WireReportStream final : public SessionObserver {
 public:
  WireReportStream(int fd, std::uint64_t campaign_id);

  void onCampaignStart(int cores, int threads) override;
  void onChannelPlaced(int tam, int channel, const std::vector<int>& cores,
                       std::size_t predicted_tcks) override;
  void onCoreStart(int core_index, int attempt) override;
  void onCoreTimeout(int core_index, int attempt, bool will_retry) override;
  void onChannelFailure(int core_index, int failures, bool will_retry) override;
  void onCoreQuarantined(int core_index, int failures) override;
  void onCoreFinish(const CoreReport& report) override;
  void onCampaignFinish(const SessionReport& report) override;
  void onCampaignEnd(std::string_view state,
                     const std::string& error) override;

 private:
  void emit(StreamEventKind kind, const std::string& json);

  int fd_;
  std::uint64_t campaign_id_;
  bool dropped_ = false;  // guarded by the process-wide frame lock
};

/// One decoded report-stream frame.
struct StreamEvent {
  StreamEventKind kind = StreamEventKind::kCampaignStart;
  std::uint64_t campaign_id = 0;
  std::string json;
};

/// Blocking read of the next frame from `fd`. Returns false on clean EOF
/// (writer closed between frames); throws std::runtime_error on a torn
/// frame, bad magic or checksum mismatch.
bool readStreamEvent(int fd, StreamEvent& out);

}  // namespace corebist

#endif  // COREBIST_SERVICE_REPORT_STREAM_HPP_
