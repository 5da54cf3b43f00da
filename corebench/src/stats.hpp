// The benchmark's own arithmetic: medians, tail percentiles, operation
// tallies and the closed-loop load generator. Kept free of library types so
// tests/selftest.cpp can pin every rule with fake clocks and services.
#ifndef COREBENCH_STATS_HPP_
#define COREBENCH_STATS_HPP_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <deque>
#include <exception>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace corebench {

/// Minimum number of samples that must lie beyond a reported percentile.
inline constexpr std::size_t kMinTailSamples = 10;

/// Median (mean of the two middle values for an even count); NaN if empty.
[[nodiscard]] inline double median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Samples over all groups.
[[nodiscard]] inline std::size_t sampleCount(
    const std::vector<std::vector<double>>& groups) {
  std::size_t n = 0;
  for (const std::vector<double>& g : groups) n += g.size();
  return n;
}

/// Median of each group, averaged over the groups that have samples, so
/// every group weighs the same however many samples it holds; NaN if none
/// has any.
[[nodiscard]] inline double meanOfMedians(
    const std::vector<std::vector<double>>& groups) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const std::vector<double>& g : groups) {
    if (g.empty()) continue;
    sum += median(g);
    ++n;
  }
  return n == 0 ? std::nan("") : sum / static_cast<double>(n);
}

/// Nearest-rank `p`-quantile (0 < p < 1) of `v`, reported only when at
/// least `min_beyond` samples lie strictly above its rank; nullopt
/// otherwise. With p = 0.9 that takes at least 100 samples.
[[nodiscard]] inline std::optional<double> tailPercentile(
    std::vector<double> v, double p, std::size_t min_beyond = kMinTailSamples) {
  if (v.empty() || !(p > 0.0 && p < 1.0)) return std::nullopt;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));  // 1-based
  const std::size_t idx = rank == 0 ? 0 : rank - 1;
  if (v.size() - (idx + 1) < min_beyond) return std::nullopt;
  return v[idx];
}

/// Operations attempted vs failed. An operation is counted once against
/// attempts and at most once as failed, whether it threw, was rejected or
/// failed one or more output checks.
struct OpTally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;  // first few failure messages

  /// Run `fn`, which returns true when every output check passed. Returns
  /// whether the operation succeeded.
  template <typename Fn>
  bool run(Fn&& fn) {
    ++attempted;
    std::string why;
    try {
      if (fn()) return true;
      why = "output check failed";
    } catch (const std::exception& e) {
      why = std::string("threw: ") + e.what();
    } catch (...) {
      why = "threw a non-standard exception";
    }
    fail(std::move(why));
    return false;
  }

  /// Count an already-attempted operation as failed.
  void fail(std::string why) {
    ++failed;
    if (errors.size() < 8) errors.push_back(std::move(why));
  }

  [[nodiscard]] double failedFrac() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

struct ClosedLoopResult {
  std::vector<double> latencies;  // seconds, successful requests only
  OpTally tally;
  double wall_seconds = 0.0;  // first submit to last await return
};

/// Closed loop of `testers` clients driven from the calling thread. Each
/// tester submits its next request only after its previous one was
/// awaited; requests are awaited oldest first. A request's latency runs
/// from just before submit() to just after await() returns, so queue wait
/// and head-of-line wait both count. Testers stop submitting once
/// `seconds` have passed; requests still in flight are awaited and
/// counted.
///
///   now()        -> double seconds on a monotonic clock
///   submit()     -> Handle; throwing means the request was refused
///   await(h)     -> bool, true when the reply passed its output checks;
///                   throwing means the request failed
template <typename Now, typename Submit, typename Await>
ClosedLoopResult runClosedLoop(int testers, double seconds, Now&& now,
                               Submit&& submit, Await&& await) {
  using Handle = decltype(submit());
  ClosedLoopResult res;
  std::deque<std::pair<Handle, double>> in_flight;
  const double t0 = now();
  const double deadline = t0 + seconds;
  auto send = [&] {
    ++res.tally.attempted;
    const double ts = now();
    try {
      in_flight.emplace_back(submit(), ts);
    } catch (const std::exception& e) {
      res.tally.fail(std::string("refused: ") + e.what());
    } catch (...) {
      res.tally.fail("refused");
    }
  };
  for (int t = 0; t < testers; ++t) send();
  while (!in_flight.empty()) {
    auto [h, ts] = std::move(in_flight.front());
    in_flight.pop_front();
    bool ok = false;
    std::string why = "output check failed";
    try {
      ok = await(h);
    } catch (const std::exception& e) {
      why = std::string("threw: ") + e.what();
    } catch (...) {
      why = "threw a non-standard exception";
    }
    const double te = now();
    if (ok) {
      res.latencies.push_back(te - ts);
    } else {
      res.tally.fail(std::move(why));
    }
    if (te < deadline) send();
  }
  res.wall_seconds = now() - t0;
  return res;
}

}  // namespace corebench

#endif  // COREBENCH_STATS_HPP_
