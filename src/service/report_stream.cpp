#include "service/report_stream.hpp"

#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "fault/process_wire.hpp"
#include "util/json.hpp"

namespace corebist {
namespace {

/// Assemble one frame: header with backpatched size/checksums, then
/// [u64 campaign_id][json bytes].
std::vector<std::uint8_t> buildFrame(StreamEventKind kind,
                                     std::uint64_t campaign_id,
                                     const std::string& json) {
  std::vector<std::uint8_t> frame;
  frame.reserve(fsimwire::kHeaderBytes + sizeof(campaign_id) + json.size());
  fsimwire::beginFrame(frame, kReportStreamMagic,
                       static_cast<std::uint32_t>(kind));
  fsimwire::putPod(frame, campaign_id);
  fsimwire::putBytes(frame, json.data(), json.size());
  fsimwire::sealFrame(frame);
  return frame;
}

/// Serializes every frame write of every stream (see the header).
std::mutex frame_mu;

}  // namespace

const char* streamEventKindName(StreamEventKind k) noexcept {
  switch (k) {
    case StreamEventKind::kCampaignStart:
      return "campaign_start";
    case StreamEventKind::kChannelPlaced:
      return "channel_placed";
    case StreamEventKind::kCoreStart:
      return "core_start";
    case StreamEventKind::kCoreTimeout:
      return "core_timeout";
    case StreamEventKind::kChannelFailure:
      return "channel_failure";
    case StreamEventKind::kCoreQuarantined:
      return "core_quarantined";
    case StreamEventKind::kCoreFinish:
      return "core_finish";
    case StreamEventKind::kCampaignFinish:
      return "campaign_finish";
    case StreamEventKind::kCampaignEnd:
      return "campaign_end";
  }
  return "unknown";
}

WireReportStream::WireReportStream(int fd, std::uint64_t campaign_id)
    : fd_(fd), campaign_id_(campaign_id) {}

void WireReportStream::emit(StreamEventKind kind, const std::string& json) {
  const std::vector<std::uint8_t> frame =
      buildFrame(kind, campaign_id_, json);
  const std::lock_guard<std::mutex> lock(frame_mu);
  if (dropped_) return;
  // A tenant that closed its reader must not fail (or stall) the campaign:
  // SIGPIPE is blocked on this thread for the write, EPIPE latches the
  // dropped state.
  fsimwire::ScopedSigpipeBlock guard;
  if (!fsimwire::writeAll(fd_, frame.data(), frame.size())) dropped_ = true;
}

void WireReportStream::onCampaignStart(int cores, int threads) {
  JsonWriter w;
  w.beginObject().field("cores", cores).field("workers", threads).endObject();
  emit(StreamEventKind::kCampaignStart, w.str());
}

void WireReportStream::onChannelPlaced(int tam, int channel,
                                       const std::vector<int>& cores,
                                       std::size_t predicted_tcks) {
  JsonWriter w;
  w.beginObject()
      .field("tam", tam)
      .field("channel", channel)
      .array("cores", cores)
      .field("predicted_tcks", predicted_tcks)
      .endObject();
  emit(StreamEventKind::kChannelPlaced, w.str());
}

void WireReportStream::onCoreStart(int core_index, int attempt) {
  JsonWriter w;
  w.beginObject()
      .field("core", core_index)
      .field("attempt", attempt)
      .endObject();
  emit(StreamEventKind::kCoreStart, w.str());
}

void WireReportStream::onCoreTimeout(int core_index, int attempt,
                                     bool will_retry) {
  JsonWriter w;
  w.beginObject()
      .field("core", core_index)
      .field("attempt", attempt)
      .field("will_retry", will_retry)
      .endObject();
  emit(StreamEventKind::kCoreTimeout, w.str());
}

void WireReportStream::onChannelFailure(int core_index, int failures,
                                        bool will_retry) {
  JsonWriter w;
  w.beginObject()
      .field("core", core_index)
      .field("failures", failures)
      .field("will_retry", will_retry)
      .endObject();
  emit(StreamEventKind::kChannelFailure, w.str());
}

void WireReportStream::onCoreQuarantined(int core_index, int failures) {
  JsonWriter w;
  w.beginObject()
      .field("core", core_index)
      .field("failures", failures)
      .endObject();
  emit(StreamEventKind::kCoreQuarantined, w.str());
}

void WireReportStream::onCoreFinish(const CoreReport& report) {
  emit(StreamEventKind::kCoreFinish, coreReportJson(report, true));
}

void WireReportStream::onCampaignFinish(const SessionReport& report) {
  emit(StreamEventKind::kCampaignFinish, report.toJson());
}

void WireReportStream::onCampaignEnd(std::string_view state,
                                     const std::string& error) {
  JsonWriter w;
  w.beginObject().field("state", state).field("error", error).endObject();
  emit(StreamEventKind::kCampaignEnd, w.str());
}

bool readStreamEvent(int fd, StreamEvent& out) {
  std::uint32_t hdr[fsimwire::kHeaderWords];
  {
    // Distinguish clean EOF (no bytes at all) from a torn header.
    auto* p = reinterpret_cast<char*>(hdr);
    std::size_t got = 0;
    while (got < sizeof hdr) {
      const ssize_t k = ::read(fd, p + got, sizeof hdr - got);
      if (k < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error("report stream: read error");
      }
      if (k == 0) {
        if (got == 0) return false;  // clean EOF between frames
        throw std::runtime_error("report stream: torn frame header");
      }
      got += static_cast<std::size_t>(k);
    }
  }
  if (!fsimwire::headerOk(hdr, kReportStreamMagic)) {
    throw std::runtime_error("report stream: corrupt frame header");
  }
  if (hdr[1] < 1 ||
      hdr[1] > static_cast<std::uint32_t>(StreamEventKind::kCampaignEnd)) {
    throw std::runtime_error("report stream: unknown event kind");
  }
  std::vector<std::uint8_t> payload(hdr[2]);
  if (!fsimwire::readAll(fd, payload.data(), payload.size())) {
    throw std::runtime_error("report stream: truncated payload");
  }
  if (fsimwire::fnv1a(payload.data(), payload.size()) != hdr[3]) {
    throw std::runtime_error("report stream: payload checksum mismatch");
  }
  fsimwire::Cursor c{payload.data(), payload.data() + payload.size()};
  const auto id = c.get<std::uint64_t>();
  if (!c.ok) throw std::runtime_error("report stream: short payload");
  out.kind = static_cast<StreamEventKind>(hdr[1]);
  out.campaign_id = id;
  out.json.assign(reinterpret_cast<const char*>(c.p),
                  static_cast<std::size_t>(c.end - c.p));
  return true;
}

}  // namespace corebist
