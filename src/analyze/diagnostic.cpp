#include "analyze/diagnostic.hpp"

#include <sstream>

#include "util/json.hpp"

namespace corebist {

namespace {

void appendNetArray(std::ostringstream& os, const char* key,
                    const std::vector<NetId>& nets) {
  os << "\"" << key << "\": [";
  for (std::size_t i = 0; i < nets.size(); ++i) {
    os << nets[i] << (i + 1 < nets.size() ? ", " : "");
  }
  os << "]";
}

}  // namespace

std::string_view severityName(Severity s) noexcept {
  switch (s) {
    case Severity::kInfo:
      return "info";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "unknown";
}

bool LintReport::hasErrors() const noexcept {
  for (const Diagnostic& d : diagnostics) {
    if (d.severity == Severity::kError) return true;
  }
  return false;
}

std::size_t LintReport::countOf(Severity s) const noexcept {
  std::size_t n = 0;
  for (const Diagnostic& d : diagnostics) {
    if (d.severity == s) ++n;
  }
  return n;
}

std::vector<const Diagnostic*> LintReport::ofRule(std::string_view rule) const {
  std::vector<const Diagnostic*> out;
  for (const Diagnostic& d : diagnostics) {
    if (d.rule == rule) out.push_back(&d);
  }
  return out;
}

const Diagnostic* LintReport::firstError() const noexcept {
  for (const Diagnostic& d : diagnostics) {
    if (d.severity == Severity::kError) return &d;
  }
  return nullptr;
}

std::string LintReport::summary() const {
  std::ostringstream os;
  os << netlist << ": " << countOf(Severity::kError) << " errors, "
     << countOf(Severity::kWarning) << " warnings, "
     << countOf(Severity::kInfo) << " infos";
  return os.str();
}

// Float-audit note: severities, rules and net lists only — no
// floating-point fields, so no finite guard is needed here. Any future
// float (e.g. a confidence score) must go through corebist::jsonFinite
// (util/json.hpp) to keep inf/NaN out of the artifact.
std::string LintReport::toJson() const {
  std::ostringstream os;
  os << "{\n  \"netlist\": \"" << jsonEscaped(netlist) << "\",\n"
     << "  \"diagnostics\": [\n";
  for (std::size_t i = 0; i < diagnostics.size(); ++i) {
    const Diagnostic& d = diagnostics[i];
    os << "    {\"severity\": \"" << severityName(d.severity)
       << "\", \"rule\": \"" << jsonEscaped(d.rule) << "\", \"message\": \""
       << jsonEscaped(d.message) << "\", ";
    appendNetArray(os, "nets", d.nets);
    os << ", ";
    appendNetArray(os, "witness", d.witness);
    os << "}" << (i + 1 < diagnostics.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

}  // namespace corebist
