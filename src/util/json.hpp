// The one JSON writer of the library. Every artifact corebist emits —
// session reports and their fingerprints, lint reports, resilience logs
// and report-stream events — is built through JsonWriter, so separators,
// escaping and the non-finite guard are decided here and nowhere else.
// Depends on nothing in the library, so every layer can include it.
//
// One layout, no option: a document is one line,
//
//   {"key": value, "k2": [1, 2], "k3": {"a": "text"}}
//
// with ": " after a key, ", " between siblings, and no newline or
// indentation. A file that holds a document ends with a single "\n", which
// the code writing the file adds.
#ifndef COREBIST_UTIL_JSON_HPP_
#define COREBIST_UTIL_JSON_HPP_

#include <charconv>
#include <concepts>
#include <ranges>
#include <string>
#include <string_view>

namespace corebist {

/// JSON string-literal escaping: `"` and `\` get a backslash, control
/// characters become \n/\t/\r/\u00XX (uppercase hex). Without it a core or
/// TAM named `say "hi"\now` would serialize to invalid JSON (and could
/// smuggle keys into the report). JsonWriter escapes every key and string
/// by these rules.
[[nodiscard]] std::string jsonEscaped(std::string_view s);

/// Non-finite guard: `%f` prints inf/NaN as `inf`/`nan`, which is not JSON.
/// A zero-wall-time campaign or a zero-duration bench ratio would otherwise
/// poison the whole artifact; non-finite values clamp to 0.0. JsonWriter
/// passes every double through it.
[[nodiscard]] double jsonFinite(double v) noexcept;

/// Append-only JSON writer. Emitters name their fields in order; the writer
/// places every separator. Contract:
///  - nesting: beginObject/endObject and beginArray/endArray; inside an
///    object each member is key() then one value or container;
///  - integers print their decimal digits (what `<<` prints), booleans
///    print true/false;
///  - keys and strings are escaped by the jsonEscaped rules, in place into
///    the buffer;
///  - a double needs an explicit count of decimals and prints as
///    `%.*f` of jsonFinite(v). value(double) without one does not compile,
///    so no double can fall into the integer or boolean overload.
class JsonWriter {
 public:
  JsonWriter& beginObject() { return open('{', '}'); }
  JsonWriter& endObject() { return close('}'); }
  JsonWriter& beginArray() { return open('[', ']'); }
  JsonWriter& endArray() { return close(']'); }

  /// Key of the next object member.
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view s);
  JsonWriter& value(double v, int decimals);
  JsonWriter& value(double v) = delete;
  template <std::integral T>
  JsonWriter& value(T v) {
    item();
    if constexpr (std::same_as<T, bool>) {
      out_ += v ? "true" : "false";
    } else {
      char buf[24];
      out_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
    }
    return *this;
  }

  /// `"k": v` — one object member.
  template <typename T>
  JsonWriter& field(std::string_view k, const T& v) {
    return key(k).value(v);
  }
  JsonWriter& field(std::string_view k, double v, int decimals) {
    return key(k).value(v, decimals);
  }
  /// `"k": [v0, v1, ...]` — an object member holding an array of scalars.
  template <std::ranges::input_range R>
  JsonWriter& array(std::string_view k, const R& items) {
    key(k).beginArray();
    for (const auto& v : items) value(v);
    return endArray();
  }

  /// The document written so far (complete once every container is
  /// closed).
  [[nodiscard]] const std::string& str() const noexcept { return out_; }

 private:
  /// Opens the next sibling: ", " unless it is the first in its container
  /// or the value of a key.
  void item();
  JsonWriter& open(char bracket, char closer);
  JsonWriter& close(char closer);

  std::string out_;
  std::string open_;  // closer of each open container, innermost last
  bool sibling_ = false;
};

}  // namespace corebist

#endif  // COREBIST_UTIL_JSON_HPP_
