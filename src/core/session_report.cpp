#include "core/session_report.hpp"

#include <cstdio>
#include <sstream>

namespace corebist {

std::string_view coreVerdictName(CoreVerdict v) {
  switch (v) {
    case CoreVerdict::kPass:
      return "pass";
    case CoreVerdict::kSignatureMismatch:
      return "signature_mismatch";
    case CoreVerdict::kTimeout:
      return "timeout";
    case CoreVerdict::kQuarantined:
      return "quarantined";
  }
  return "?";
}

std::string CoreReport::summary() const {
  std::ostringstream os;
  os << "core " << core_index;
  if (!core_name.empty()) os << " (" << core_name << ")";
  os << ": ";
  if (pass()) {
    os << "PASS";
  } else if (verdict == CoreVerdict::kQuarantined) {
    os << "QUARANTINED after " << channel_failures << " channel failure(s)";
    return os.str();
  } else if (verdict == CoreVerdict::kTimeout) {
    os << "TIMEOUT after " << attempts << " attempt(s)";
  } else {
    os << "FAIL";
  }
  if (!modules.empty()) {
    os << " (";
    for (std::size_t m = 0; m < modules.size(); ++m) {
      if (m != 0) os << ", ";
      os << "M" << m << (modules[m].pass() ? " ok" : " MISMATCH");
    }
    os << ")";
  }
  os << ", " << bist_cycles << " at-speed cycles, " << tap_clocks << " TCKs";
  if (attempts > 1) os << ", " << attempts << " attempts";
  return os.str();
}

bool SessionReport::pass() const noexcept {
  for (const CoreReport& c : cores) {
    if (!c.pass()) return false;
  }
  return true;
}

int SessionReport::passCount() const noexcept {
  int n = 0;
  for (const CoreReport& c : cores) {
    if (c.pass()) ++n;
  }
  return n;
}

const CoreReport* SessionReport::core(int core_index) const noexcept {
  for (const CoreReport& c : cores) {
    if (c.core_index == core_index) return &c;
  }
  return nullptr;
}

std::string SessionReport::summary() const {
  std::ostringstream os;
  os << "campaign";
  if (!soc_name.empty()) os << " " << soc_name;
  os << ": " << passCount() << "/" << cores.size() << " cores PASS, "
     << total_tap_clocks << " TCKs, " << total_bist_cycles
     << " at-speed cycles";
  char buf[64];
  std::snprintf(buf, sizeof buf, ", %.3fs on %d shard(s)", wall_seconds,
                threads);
  os << buf;
  return os.str();
}

namespace {

/// Signatures print as fixed-width hex strings ("0xBEEF").
std::string hex16(std::uint16_t v) {
  char buf[8];
  std::snprintf(buf, sizeof buf, "0x%04X", v);
  return buf;
}

void writeCore(JsonWriter& w, const CoreReport& c, bool include_timing) {
  w.beginObject()
      .field("core", c.core_index)
      .field("name", c.core_name)
      .field("tam", c.tam)
      .field("depth", c.depth)
      .field("verdict", coreVerdictName(c.verdict))
      .field("pass", c.pass());
  if (c.verdict == CoreVerdict::kQuarantined) {
    // The core was never conclusively tested: identity + verdict only.
    // channel_failures depends on where the infrastructure broke, so it is
    // timing-gated (out of the fingerprint), like utilization.
    if (include_timing) {
      w.field("channel_failures", c.channel_failures)
          .field("seconds", c.seconds, 4);
    }
    w.key("modules").beginArray().endArray().endObject();
    return;
  }
  if (include_timing && c.channel_failures > 0) {
    w.field("channel_failures", c.channel_failures);
  }
  w.field("end_test_seen", c.end_test_seen)
      .field("patterns", c.patterns)
      .field("attempts", c.attempts)
      .field("timeouts", c.timeouts)
      .field("polls", c.polls)
      .field("tap_clocks", c.tap_clocks)
      .field("bist_cycles", c.bist_cycles);
  if (include_timing) w.field("seconds", c.seconds, 4);
  w.key("modules").beginArray();
  for (const ModuleVerdict& v : c.modules) {
    w.beginObject()
        .field("signature", hex16(v.signature))
        .field("golden", hex16(v.golden))
        .field("pass", v.pass())
        .endObject();
  }
  w.endArray().endObject();
}

std::string writeReport(const SessionReport& r, bool include_timing) {
  JsonWriter w;
  w.beginObject().field("soc", r.soc_name).field("pass", r.pass());
  if (include_timing) {
    w.field("threads", r.threads)
        .field("wall_seconds", r.wall_seconds, 4)
        .field("predicted_makespan_tcks", r.predicted_makespan_tcks)
        .field("actual_makespan_tcks", r.actual_makespan_tcks);
  }
  w.field("total_tap_clocks", r.total_tap_clocks)
      .field("total_bist_cycles", r.total_bist_cycles)
      .key("tams")
      .beginArray();
  for (const TamReport& tr : r.tams) {
    w.beginObject()
        .field("tam", tr.tam_index)
        .field("name", tr.name)
        .array("cores", tr.core_order)
        .field("tap_clocks", tr.tap_clocks)
        .field("bist_cycles", tr.bist_cycles);
    if (include_timing) {
      w.field("channels", tr.channels)
          .field("busy_seconds", tr.busy_seconds, 4)
          .field("utilization", tr.utilization, 3);
      if (!tr.channel_loads.empty()) {
        w.field("predicted_tap_clocks", tr.predicted_tap_clocks)
            .field("predicted_makespan_tcks", tr.predicted_makespan_tcks)
            .field("actual_makespan_tcks", tr.actual_makespan_tcks)
            .key("channel_loads")
            .beginArray();
        for (const ChannelLoad& cl : tr.channel_loads) {
          w.beginObject()
              .field("channel", cl.channel)
              .array("cores", cl.cores)
              .field("predicted_tcks", cl.predicted_tcks)
              .field("actual_tcks", cl.actual_tcks)
              .endObject();
        }
        w.endArray();
      }
    }
    w.endObject();
  }
  w.endArray().key("cores").beginArray();
  for (const CoreReport& c : r.cores) writeCore(w, c, include_timing);
  w.endArray().endObject();
  return w.str();
}

}  // namespace

std::string coreReportJson(const CoreReport& report, bool include_timing) {
  JsonWriter w;
  writeCore(w, report, include_timing);
  return w.str();
}

std::string SessionReport::toJson() const { return writeReport(*this, true); }

std::string SessionReport::fingerprint() const {
  return writeReport(*this, false);
}

}  // namespace corebist
