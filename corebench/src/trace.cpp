#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "report.hpp"

namespace corebench {

std::int64_t Tracer::add(std::string name, double start, double end,
                         std::int64_t parent, std::uint64_t campaign) {
  if (!enabled_) return -1;
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{std::move(name), start, end, parent, campaign});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::int64_t Tracer::open(std::string name, std::int64_t parent) {
  const double t = now();
  return add(std::move(name), t, t, parent);
}

void Tracer::close(std::int64_t id) {
  if (id < 0) return;
  const double t = now();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.at(static_cast<std::size_t>(id)).end = t;
}

std::vector<double> Tracer::durations(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.end - s.start);
  }
  return out;
}

std::size_t Tracer::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, SpanTotals> Tracer::totals() const {
  const std::lock_guard<std::mutex> lock(mu_);
  // Child intervals per parent, clipped to the parent and merged, so
  // overlapping children (concurrent core sessions) are not subtracted
  // twice.
  std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans_.size()) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);
    }
  }
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::vector<std::pair<double, double>>& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double lo = 0.0;
    double hi = -1.0;
    for (const auto& [a0, b0] : iv) {
      const double a = std::max(a0, s.start);
      const double b = std::min(b0, s.end);
      if (b <= a) continue;
      if (a > hi) {
        if (hi > lo) covered += hi - lo;
        lo = a;
        hi = b;
      } else {
        hi = std::max(hi, b);
      }
    }
    if (hi > lo) covered += hi - lo;
    SpanTotals& t = out[s.name];
    t.count += 1;
    t.total += s.end - s.start;
    t.self += (s.end - s.start) - covered;
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(f, "{\"spans\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": %s, \"start\": %.9f, "
                 "\"end\": %.9f, \"parent\": %lld, \"campaign\": %llu}%s\n",
                 i, jsonString(s.name).c_str(), s.start, s.end,
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.campaign),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace corebench
