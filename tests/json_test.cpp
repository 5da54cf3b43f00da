// The one JSON writer (util/json.hpp): its layout, escaping, number
// formatting and compile-time guards, and a strict parse of every library
// emitter's output on hostile inputs.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cctype>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "analyze/diagnostic.hpp"
#include "core/session_report.hpp"
#include "fault/sharded_fsim.hpp"
#include "service/report_stream.hpp"
#include "util/json.hpp"

namespace corebist {
namespace {

template <typename T>
concept WritableWithoutDecimals =
    requires(JsonWriter& w, T v) { w.value(v); };
static_assert(!WritableWithoutDecimals<double>);
static_assert(!WritableWithoutDecimals<float>);
static_assert(WritableWithoutDecimals<int>);
static_assert(WritableWithoutDecimals<bool>);
static_assert(WritableWithoutDecimals<std::string_view>);

/// Strict recursive-descent check of one document in the writer's layout:
/// RFC 8259 values, exactly ": " after a key and ", " between siblings, and
/// no other whitespace. A stray, missing or trailing comma fails it, which
/// a brace-balance count does not catch, and so does a bare inf or nan.
class StrictJson {
 public:
  static bool valid(std::string_view s) {
    StrictJson p(s);
    return p.value() && p.at_ == s.size();
  }

 private:
  explicit StrictJson(std::string_view s) : s_(s) {}

  [[nodiscard]] char peek() const { return at_ < s_.size() ? s_[at_] : '\0'; }
  bool eat(std::string_view t) {
    if (s_.substr(at_).substr(0, t.size()) != t) return false;
    at_ += t.size();
    return true;
  }
  bool digits() {
    const std::size_t from = at_;
    while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++at_;
    return at_ > from;
  }
  bool value() {
    switch (peek()) {
      case '{':
        return container("}", true);
      case '[':
        return container("]", false);
      case '"':
        return string();
      case 't':
        return eat("true");
      case 'f':
        return eat("false");
      case 'n':
        return eat("null");
      default:
        return number();
    }
  }
  bool container(std::string_view close, bool object) {
    ++at_;
    if (eat(close)) return true;
    do {
      if (object && !(string() && eat(": "))) return false;
      if (!value()) return false;
    } while (eat(", "));
    return eat(close);
  }
  bool string() {
    if (!eat("\"")) return false;
    while (at_ < s_.size()) {
      const auto c = static_cast<unsigned char>(s_[at_++]);
      if (c == '"') return true;
      if (c < 0x20) return false;
      if (c != '\\') continue;
      const char e = peek();
      ++at_;
      if (e == 'u') {
        for (int k = 0; k < 4; ++k, ++at_) {
          if (std::isxdigit(static_cast<unsigned char>(peek())) == 0) {
            return false;
          }
        }
      } else if (e == '\0' ||
                 std::string_view("\"\\/bfnrt").find(e) ==
                     std::string_view::npos) {
        return false;
      }
    }
    return false;
  }
  bool number() {
    eat("-");
    if (!eat("0") && !digits()) return false;
    if (eat(".") && !digits()) return false;
    if (peek() == 'e' || peek() == 'E') {
      ++at_;
      if (peek() == '+' || peek() == '-') ++at_;
      if (!digits()) return false;
    }
    return true;
  }

  std::string_view s_;
  std::size_t at_ = 0;
};

TEST(JsonWriter, NestingAndSeparators) {
  JsonWriter w;
  w.beginObject()
      .field("a", 1)
      .key("b")
      .beginArray()
      .value(1)
      .value(2)
      .beginObject()
      .field("c", true)
      .endObject()
      .endArray()
      .key("d")
      .beginObject()
      .field("e", "x")
      .array("f", std::vector<int>{3, 4})
      .endObject()
      .endObject();
  EXPECT_EQ(w.str(), R"({"a": 1, "b": [1, 2, {"c": true}], )"
                     R"("d": {"e": "x", "f": [3, 4]}})");
  EXPECT_TRUE(StrictJson::valid(w.str()));
}

TEST(JsonWriter, EmptyObjectAndArray) {
  JsonWriter obj;
  obj.beginObject().endObject();
  EXPECT_EQ(obj.str(), "{}");
  JsonWriter arr;
  arr.beginArray().endArray();
  EXPECT_EQ(arr.str(), "[]");
  JsonWriter nested;
  nested.beginObject()
      .array("a", std::vector<int>{})
      .key("b")
      .beginObject()
      .endObject()
      .field("c", false)
      .endObject();
  EXPECT_EQ(nested.str(), R"({"a": [], "b": {}, "c": false})");
}

TEST(JsonWriter, EscapesKeysAndStrings) {
  JsonWriter w;
  w.beginObject()
      .field("k\"\\", std::string_view("q\"b\\s\n\t\r\x01\x1f end"))
      .endObject();
  EXPECT_EQ(w.str(), R"({"k\"\\": "q\"b\\s\n\t\r\u0001\u001F end"})");
  EXPECT_EQ(jsonEscaped("q\"b\\s\n\t\r\x01\x1f end"),
            R"(q\"b\\s\n\t\r\u0001\u001F end)");
}

TEST(JsonWriter, DoublesPrintAtTheirPrecisionAndClampNonFinite) {
  const double inf = std::numeric_limits<double>::infinity();
  JsonWriter w;
  w.beginArray()
      .value(std::numeric_limits<double>::quiet_NaN(), 3)
      .value(inf, 2)
      .value(-inf, 0)
      .value(1.23456, 2)
      .value(-0.5, 1)
      .value(2.0, 0)
      .endArray();
  EXPECT_EQ(w.str(), "[0.000, 0.00, 0, 1.23, -0.5, 2]");
  JsonWriter big;
  big.beginArray().value(std::numeric_limits<double>::max(), 4).endArray();
  EXPECT_TRUE(StrictJson::valid(big.str()));
  EXPECT_EQ(big.str().size(), 2u + 309u + 5u);
}

TEST(JsonWriter, IntegersPrintTheirDigits) {
  JsonWriter w;
  w.beginArray()
      .value(std::numeric_limits<std::size_t>::max())
      .value(-1)
      .value(std::numeric_limits<std::int64_t>::min())
      .value(std::numeric_limits<std::uint64_t>::max())
      .value(std::uint16_t{65535})
      .value(0u)
      .endArray();
  EXPECT_EQ(w.str(),
            "[18446744073709551615, -1, -9223372036854775808, "
            "18446744073709551615, 65535, 0]");
}

TEST(JsonWriter, StrictValidatorRejectsWhatBraceCountsMiss) {
  EXPECT_TRUE(StrictJson::valid(R"({"a": [1, -2.5e3, "x"], "b": null})"));
  for (const char* bad :
       {R"({"a": 1,, "b": 2})", R"({"a": 1 "b": 2})", R"([1, 2, ])",
        R"({"a":1})", R"({"a": 1,"b": 2})", R"({"a": 01})", "{\"a\n\": 1}",
        R"({"a": "\x"})", "{\"a\": 1}\n", R"({"a": 1)", R"("\u12")",
        "[inf]", "[-inf]", "[nan]"}) {
    EXPECT_FALSE(StrictJson::valid(bad)) << bad;
  }
}

// ---------------------------------------------------------------------------
// Every library emitter, on inputs that reach every branch.
// ---------------------------------------------------------------------------

SessionReport hostileReport() {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  CoreReport ok;
  ok.core_index = 0;
  ok.core_name = "dsp\n\"core\"\ttab\x01\x1f\\";
  ok.verdict = CoreVerdict::kPass;
  ok.end_test_seen = true;
  ok.modules = {{0xBEEF, 0xBEEF}, {0x0001, 0xFFFF}, {0x1234, 0x1234}};
  ok.tap_clocks = std::numeric_limits<std::size_t>::max();
  ok.seconds = inf;
  ok.channel_failures = 2;
  CoreReport quarantined;
  quarantined.core_index = 3;
  quarantined.core_name = "q\"core";
  quarantined.verdict = CoreVerdict::kQuarantined;
  quarantined.channel_failures = 5;
  quarantined.seconds = nan;
  CoreReport timeout;
  timeout.core_index = 4;
  timeout.verdict = CoreVerdict::kTimeout;

  SessionReport r;
  r.soc_name = "soc \"A\"\\path\r";
  r.cores = {ok, quarantined, timeout};
  TamReport loaded;
  loaded.name = "tam\\0 \"fast\"";
  loaded.core_order = {0, 3};
  loaded.busy_seconds = inf;
  loaded.utilization = nan;
  loaded.channel_loads = {ChannelLoad{0, {0, 3}, 100, 101},
                          ChannelLoad{1, {}, 0, 0}};
  TamReport idle;
  idle.tam_index = 1;
  idle.name = "make\"span";
  r.tams = {loaded, idle};
  r.wall_seconds = -inf;
  return r;
}

LintReport hostileLint() {
  LintReport lr;
  lr.netlist = "net\"list\n";
  lr.diagnostics.push_back(
      {Severity::kError, "comb-loop", "loop \"x\"\\y\x02", {1, 2, 3}, {3, 2}});
  lr.diagnostics.push_back({Severity::kWarning, "r\"", "", {}, {}});
  return lr;
}

ResilienceLog hostileLog() {
  ResilienceLog log;
  log.retries = 3;
  log.final_rung = 2;
  ResilienceEvent retry;
  retry.shard = std::numeric_limits<std::int64_t>::max();
  retry.detail = "crash \"sig\"\n\x03";
  ResilienceEvent stray;
  stray.kind = ResilienceEvent::Kind::kStrayShutdown;
  stray.rung = 7;  // out of range: named "?"
  log.events = {retry, stray};
  return log;
}

TEST(JsonEmitters, EveryLibraryEmitterWritesStrictOneLineJson) {
  const SessionReport report = hostileReport();
  std::vector<std::string> docs = {
      report.toJson(),
      report.fingerprint(),
      SessionReport{}.toJson(),
      SessionReport{}.fingerprint(),
      hostileLint().toJson(),
      LintReport{}.toJson(),
      hostileLog().toJson(),
      ResilienceLog{}.toJson(),
  };
  for (const CoreReport& c : report.cores) {
    docs.push_back(coreReportJson(c, true));
    docs.push_back(coreReportJson(c, false));
  }

  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  {
    WireReportStream stream(fds[1], 7);
    stream.onCampaignStart(6, 4);
    stream.onChannelPlaced(1, 2, {0, 3, 5}, 12345);
    stream.onChannelPlaced(0, 0, {}, 0);
    stream.onCoreStart(3, 1);
    stream.onCoreTimeout(3, 2, true);
    stream.onChannelFailure(4, 1, false);
    stream.onCoreQuarantined(4, 2);
    stream.onCoreFinish(report.cores[0]);
    stream.onCampaignFinish(report);
    stream.onCampaignEnd("failed", "boom \"x\"\\\n\x01");
  }
  close(fds[1]);
  StreamEvent ev;
  int events = 0;
  while (readStreamEvent(fds[0], ev)) {
    docs.push_back(ev.json);
    ++events;
  }
  close(fds[0]);
  EXPECT_EQ(events, 10);

  for (const std::string& doc : docs) {
    EXPECT_TRUE(StrictJson::valid(doc)) << doc;
    EXPECT_EQ(doc.find('\n'), std::string::npos) << doc;
  }
}

}  // namespace
}  // namespace corebist
