#include "util/json.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>

namespace corebist {

namespace {

void appendEscaped(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789ABCDEF";
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (const auto u = static_cast<unsigned char>(c); u < 0x20) {
          out += "\\u00";
          out += kHex[u >> 4];
          out += kHex[u & 0xF];
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

double jsonFinite(double v) noexcept { return std::isfinite(v) ? v : 0.0; }

std::string jsonEscaped(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  appendEscaped(out, s);
  return out;
}

void JsonWriter::item() {
  if (sibling_) out_ += ", ";
  sibling_ = true;
}

JsonWriter& JsonWriter::open(char bracket, char closer) {
  item();
  out_ += bracket;
  open_ += closer;
  sibling_ = false;
  return *this;
}

JsonWriter& JsonWriter::close(char closer) {
  assert(!open_.empty() && open_.back() == closer);
  open_.pop_back();
  out_ += closer;
  sibling_ = true;
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  assert(!open_.empty() && open_.back() == '}');
  value(k);
  out_ += ": ";
  sibling_ = false;  // the member's value follows without a separator
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  item();
  out_ += '"';
  appendEscaped(out_, s);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::value(double v, int decimals) {
  item();
  // Room for DBL_MAX's 309 integer digits, a sign, the point and the
  // decimals any emitter asks for; snprintf truncates rather than overrun.
  char buf[400];
  const int n = std::snprintf(buf, sizeof buf, "%.*f", decimals, jsonFinite(v));
  out_.append(buf, static_cast<std::size_t>(
                       std::clamp(n, 0, static_cast<int>(sizeof buf) - 1)));
  return *this;
}

}  // namespace corebist
