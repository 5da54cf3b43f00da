#include "analyze/diagnostic.hpp"

#include <sstream>

#include "util/json.hpp"

namespace corebist {

std::string_view severityName(Severity s) noexcept {
  switch (s) {
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
     << countOf(Severity::kWarning) << " warnings";
  return os.str();
}

std::string LintReport::toJson() const {
  JsonWriter w;
  w.beginObject().field("netlist", netlist).key("diagnostics").beginArray();
  for (const Diagnostic& d : diagnostics) {
    w.beginObject()
        .field("severity", severityName(d.severity))
        .field("rule", d.rule)
        .field("message", d.message)
        .array("nets", d.nets)
        .array("witness", d.witness)
        .endObject();
  }
  w.endArray().endObject();
  return w.str();
}

}  // namespace corebist
