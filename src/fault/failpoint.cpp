#include "fault/failpoint.hpp"

#include <time.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace corebist {

namespace detail {
std::atomic<int> g_failpoints_armed{0};
}  // namespace detail

namespace {

FailpointAction::Kind parseActionKind(std::string_view name) {
  using Kind = FailpointAction::Kind;
  if (name == "crash") return Kind::kCrash;
  if (name == "hang") return Kind::kHang;
  if (name == "error") return Kind::kError;
  if (name == "truncate") return Kind::kTruncate;
  if (name == "bitflip") return Kind::kBitflip;
  if (name == "shortwrite") return Kind::kShortWrite;
  if (name == "delay") return Kind::kDelay;
  throw std::invalid_argument("failpoint spec: unknown action '" +
                              std::string(name) + "'");
}

std::int64_t parseInt(std::string_view s, std::string_view what) {
  if (s.empty()) {
    throw std::invalid_argument("failpoint spec: empty value for '" +
                                std::string(what) + "'");
  }
  errno = 0;
  char* end = nullptr;
  const std::string buf(s);
  const long long v = std::strtoll(buf.c_str(), &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0') {
    throw std::invalid_argument("failpoint spec: bad integer '" + buf +
                                "' for '" + std::string(what) + "'");
  }
  return v;
}

}  // namespace

FailpointRegistry& FailpointRegistry::instance() {
  static FailpointRegistry* reg = [] {
    auto* r = new FailpointRegistry();  // leaked: lives for the process
    r->armFromEnv();
    return r;
  }();
  return *reg;
}

void FailpointRegistry::publishArmedCount() {
  detail::g_failpoints_armed.store(static_cast<int>(entries_.size()),
                                   std::memory_order_relaxed);
}

void FailpointRegistry::arm(std::string_view site, FailpointAction action,
                            std::int64_t match_index, std::int64_t match_seq,
                            int skip, int count) {
  if (site.empty()) {
    throw std::invalid_argument("failpoint: empty site name");
  }
  if (action.kind == FailpointAction::Kind::kOff) {
    throw std::invalid_argument("failpoint: cannot arm the 'off' action");
  }
  const std::lock_guard<std::mutex> lock(mu_);
  entries_.push_back(Entry{std::string(site), action, match_index, match_seq,
                           skip, count, 0});
  publishArmedCount();
}

void FailpointRegistry::armFromSpec(std::string_view spec) {
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t end = spec.find(';', pos);
    if (end == std::string_view::npos) end = spec.size();
    const std::string_view entry = spec.substr(pos, end - pos);
    pos = end + 1;
    if (entry.empty()) continue;

    const std::size_t eq = entry.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      throw std::invalid_argument("failpoint spec: entry '" +
                                  std::string(entry) +
                                  "' is not site=action");
    }
    const std::string_view site = entry.substr(0, eq);
    std::string_view rest = entry.substr(eq + 1);

    std::size_t colon = rest.find(':');
    FailpointAction action;
    action.kind = parseActionKind(
        colon == std::string_view::npos ? rest : rest.substr(0, colon));
    std::int64_t match_index = -1;
    std::int64_t match_seq = -1;
    int skip = 0;
    int count = 1;
    while (colon != std::string_view::npos) {
      rest = rest.substr(colon + 1);
      colon = rest.find(':');
      const std::string_view param =
          colon == std::string_view::npos ? rest : rest.substr(0, colon);
      const std::size_t peq = param.find('=');
      if (peq == std::string_view::npos || peq == 0) {
        throw std::invalid_argument("failpoint spec: bad param '" +
                                    std::string(param) + "' in entry '" +
                                    std::string(entry) + "'");
      }
      const std::string_view key = param.substr(0, peq);
      const std::string_view val = param.substr(peq + 1);
      if (key == "worker" || key == "index" || key == "core") {
        match_index = parseInt(val, key);
      } else if (key == "shard" || key == "seq" || key == "attempt" ||
                 key == "poll") {
        match_seq = parseInt(val, key);
      } else if (key == "skip") {
        skip = static_cast<int>(parseInt(val, key));
      } else if (key == "count") {
        count = static_cast<int>(parseInt(val, key));
      } else if (key == "ms") {
        action.delay_ms = static_cast<int>(parseInt(val, key));
      } else if (key == "jitter") {
        action.jitter_ms = static_cast<int>(parseInt(val, key));
      } else if (key == "arg") {
        action.arg = static_cast<std::uint64_t>(parseInt(val, key));
      } else {
        throw std::invalid_argument("failpoint spec: unknown key '" +
                                    std::string(key) + "' in entry '" +
                                    std::string(entry) + "'");
      }
    }
    arm(site, action, match_index, match_seq, skip, count);
  }
}

int FailpointRegistry::armFromEnv() {
  const char* spec = std::getenv("COREBIST_FAILPOINTS");
  if (spec == nullptr || spec[0] == '\0') return 0;
  std::size_t before = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    before = entries_.size();
  }
  try {
    armFromSpec(spec);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "COREBIST_FAILPOINTS ignored after error: %s\n",
                 e.what());
  }
  const std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(entries_.size() - before);
}

void FailpointRegistry::disarm(std::string_view site) {
  const std::lock_guard<std::mutex> lock(mu_);
  std::erase_if(entries_, [&](const Entry& e) { return e.site == site; });
  publishArmedCount();
}

void FailpointRegistry::disarmAll() {
  const std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  publishArmedCount();
}

std::size_t FailpointRegistry::firedCount(std::string_view site) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const Entry& e : entries_) {
    if (e.site == site) n += e.fired;
  }
  return n;
}

std::size_t FailpointRegistry::armedCount(std::string_view site) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const Entry& e : entries_) {
    if (e.site == site && e.remaining != 0) ++n;
  }
  return n;
}

std::optional<FailpointAction> FailpointRegistry::fire(
    std::string_view site, const FailpointContext& ctx) {
  const std::lock_guard<std::mutex> lock(mu_);
  for (Entry& e : entries_) {
    if (e.site != site) continue;
    if (e.match_index >= 0 && e.match_index != ctx.index) continue;
    if (e.match_seq >= 0 && e.match_seq != ctx.seq) continue;
    if (e.remaining == 0) continue;
    if (e.skip > 0) {
      --e.skip;
      continue;
    }
    if (e.remaining > 0) --e.remaining;
    ++e.fired;
    return e.action;
  }
  return std::nullopt;
}

int failpointJitterMs(const FailpointAction& a,
                      std::uint64_t ordinal) noexcept {
  if (a.jitter_ms <= 0) return 0;
  const std::uint64_t h = (ordinal + 1) * 0x9E3779B97F4A7C15ull;
  return static_cast<int>(h % static_cast<std::uint64_t>(a.jitter_ms + 1));
}

void failpointSleepMs(int ms) noexcept {
  if (ms <= 0) return;
  struct timespec ts {ms / 1000, (ms % 1000) * 1'000'000L};
  while (::nanosleep(&ts, &ts) != 0 && errno == EINTR) {
  }
}

int backoffMs(int base_ms, int attempt) noexcept {
  if (base_ms <= 0) return 0;
  const int shift = std::clamp(attempt - 1, 0, 20);
  return static_cast<int>(std::min<std::int64_t>(
      static_cast<std::int64_t>(base_ms) << shift, kMaxBackoffMs));
}

}  // namespace corebist
