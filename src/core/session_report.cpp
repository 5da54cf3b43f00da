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
  } else if (verdict == CoreVerdict::kSignatureMismatch) {
    os << "FAIL";
  } else {
    os << "FAIL (coverage below target)";
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

void writeCore(std::ostringstream& os, const CoreReport& c,
               bool include_timing) {
  char buf[64];
  os << "{\"core\": " << c.core_index << ", \"name\": \""
     << jsonEscaped(c.core_name) << "\", \"tam\": " << c.tam
     << ", \"depth\": " << c.depth << ", \"verdict\": \""
     << jsonEscaped(coreVerdictName(c.verdict))
     << "\", \"pass\": " << (c.pass() ? "true" : "false");
  if (c.verdict == CoreVerdict::kQuarantined) {
    // The core was never conclusively tested: identity + verdict only.
    // channel_failures depends on where the infrastructure broke, so it is
    // timing-gated (out of the fingerprint), like utilization.
    if (include_timing) {
      os << ", \"channel_failures\": " << c.channel_failures;
      std::snprintf(buf, sizeof buf, ", \"seconds\": %.4f",
                    jsonFinite(c.seconds));
      os << buf;
    }
    os << ", \"modules\": []}";
    return;
  }
  if (include_timing && c.channel_failures > 0) {
    os << ", \"channel_failures\": " << c.channel_failures;
  }
  os << ", \"end_test_seen\": " << (c.end_test_seen ? "true" : "false")
     << ", \"patterns\": " << c.patterns << ", \"attempts\": " << c.attempts
     << ", \"timeouts\": " << c.timeouts << ", \"polls\": " << c.polls
     << ", \"tap_clocks\": " << c.tap_clocks
     << ", \"bist_cycles\": " << c.bist_cycles;
  if (include_timing) {
    std::snprintf(buf, sizeof buf, ", \"seconds\": %.4f",
                  jsonFinite(c.seconds));
    os << buf;
  }
  if (c.coverage_target > 0.0) {
    std::snprintf(buf, sizeof buf, ", \"coverage_target\": %.2f",
                  jsonFinite(c.coverage_target));
    os << buf << ", \"coverage_met\": " << (c.coverage_met ? "true" : "false");
  }
  os << ", \"modules\": [";
  for (std::size_t m = 0; m < c.modules.size(); ++m) {
    const ModuleVerdict& v = c.modules[m];
    if (m != 0) os << ", ";
    std::snprintf(buf, sizeof buf,
                  "{\"signature\": \"0x%04X\", \"golden\": \"0x%04X\"",
                  v.signature, v.golden);
    os << buf << ", \"pass\": " << (v.pass() ? "true" : "false");
    if (v.coverage >= 0.0) {
      std::snprintf(buf, sizeof buf, ", \"coverage\": %.3f",
                    jsonFinite(v.coverage));
      os << buf;
    }
    os << "}";
  }
  os << "]}";
}

std::string writeReport(const SessionReport& r, bool include_timing) {
  std::ostringstream os;
  os << "{\n  \"soc\": \"" << jsonEscaped(r.soc_name) << "\",\n";
  os << "  \"pass\": " << (r.pass() ? "true" : "false") << ",\n";
  if (include_timing) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.4f", jsonFinite(r.wall_seconds));
    os << "  \"threads\": " << r.threads << ",\n  \"wall_seconds\": " << buf
       << ",\n";
    if (!r.placement.empty()) {
      os << "  \"placement\": \"" << jsonEscaped(r.placement) << "\",\n"
         << "  \"predicted_makespan_tcks\": " << r.predicted_makespan_tcks
         << ",\n  \"actual_makespan_tcks\": " << r.actual_makespan_tcks
         << ",\n";
    }
  }
  os << "  \"total_tap_clocks\": " << r.total_tap_clocks << ",\n";
  os << "  \"total_bist_cycles\": " << r.total_bist_cycles << ",\n";
  os << "  \"tams\": [\n";
  for (std::size_t t = 0; t < r.tams.size(); ++t) {
    const TamReport& tr = r.tams[t];
    os << "    {\"tam\": " << tr.tam_index << ", \"name\": \""
       << jsonEscaped(tr.name) << "\", \"cores\": [";
    for (std::size_t c = 0; c < tr.core_order.size(); ++c) {
      if (c != 0) os << ", ";
      os << tr.core_order[c];
    }
    os << "], \"tap_clocks\": " << tr.tap_clocks
       << ", \"bist_cycles\": " << tr.bist_cycles;
    if (include_timing) {
      char buf[96];
      std::snprintf(buf, sizeof buf,
                    ", \"channels\": %d, \"busy_seconds\": %.4f, "
                    "\"utilization\": %.3f",
                    tr.channels, jsonFinite(tr.busy_seconds),
                    jsonFinite(tr.utilization));
      os << buf;
      if (!tr.channel_loads.empty()) {
        os << ", \"predicted_tap_clocks\": " << tr.predicted_tap_clocks
           << ", \"predicted_makespan_tcks\": " << tr.predicted_makespan_tcks
           << ", \"actual_makespan_tcks\": " << tr.actual_makespan_tcks
           << ", \"channel_loads\": [";
        for (std::size_t ch = 0; ch < tr.channel_loads.size(); ++ch) {
          const ChannelLoad& cl = tr.channel_loads[ch];
          if (ch != 0) os << ", ";
          os << "{\"channel\": " << cl.channel << ", \"cores\": [";
          for (std::size_t c = 0; c < cl.cores.size(); ++c) {
            if (c != 0) os << ", ";
            os << cl.cores[c];
          }
          os << "], \"predicted_tcks\": " << cl.predicted_tcks
             << ", \"actual_tcks\": " << cl.actual_tcks << "}";
        }
        os << "]";
      }
    }
    os << "}" << (t + 1 < r.tams.size() ? ",\n" : "\n");
  }
  os << "  ],\n";
  os << "  \"cores\": [\n";
  for (std::size_t i = 0; i < r.cores.size(); ++i) {
    os << "    ";
    writeCore(os, r.cores[i], include_timing);
    os << (i + 1 < r.cores.size() ? ",\n" : "\n");
  }
  os << "  ]\n}\n";
  return os.str();
}

}  // namespace

std::string coreReportJson(const CoreReport& report, bool include_timing) {
  std::ostringstream os;
  writeCore(os, report, include_timing);
  return os.str();
}

std::string SessionReport::toJson() const { return writeReport(*this, true); }

std::string SessionReport::fingerprint() const {
  return writeReport(*this, false);
}

}  // namespace corebist
