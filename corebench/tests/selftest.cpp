// Tests of the benchmark's own arithmetic (src/stats.hpp and the host-speed
// factor): per-instance medians, the tail percentile rule, closed-loop
// latency bounds and failure counting. Fake clocks and services make every
// expected value exact.
//
//   corebench_selftest        exit status 0 when every check passes
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "hostspeed.hpp"
#include "stats.hpp"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

std::vector<double> oneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void testMedian() {
  CHECK(corebench::median({3.0, 1.0, 2.0}) == 2.0);
  CHECK(corebench::median({4.0, 1.0, 3.0, 2.0}) == 2.5);
  CHECK(std::isnan(corebench::median({})));
}

void testMeanOfMedians() {
  using corebench::meanOfMedians;
  // Each group's median counts once, however many samples the group has.
  CHECK(meanOfMedians({{1.0, 9.0, 2.0}, {4.0}}) == 3.0);
  CHECK(meanOfMedians({{1.0, 3.0}, {}, {8.0, 6.0, 7.0}}) == 4.5);
  CHECK(std::isnan(meanOfMedians({{}, {}})));
}

void testHostSpeedFactor() {
  using corebench::hostSpeedFactor;
  using corebench::kReferenceKernelSeconds;
  const double k = kReferenceKernelSeconds;
  // The median kernel time sets the factor: twice as slow halves it, and
  // one outlier among three samples does not move it.
  CHECK(std::fabs(hostSpeedFactor({2 * k, 2 * k, 50 * k}) - 0.5) < 1e-12);
  CHECK(std::fabs(hostSpeedFactor({k / 2}) - 2.0) < 1e-12);
  CHECK(hostSpeedFactor({}) == 1.0);
}

void testTailPercentile() {
  using corebench::tailPercentile;
  // p90 needs 10 samples beyond its rank: 100 samples is the minimum.
  CHECK(!tailPercentile(oneTo(99), 0.9).has_value());
  CHECK(tailPercentile(oneTo(100), 0.9).value_or(-1) == 90.0);
  CHECK(tailPercentile(oneTo(109), 0.9).value_or(-1) == 99.0);
  // 110 samples: rank 99, 11 beyond.
  CHECK(tailPercentile(oneTo(110), 0.9).value_or(-1) == 99.0);
  // The median needs 20 samples to have 10 beyond it.
  CHECK(!tailPercentile(oneTo(19), 0.5).has_value());
  CHECK(tailPercentile(oneTo(20), 0.5).value_or(-1) == 10.0);
  CHECK(!tailPercentile({}, 0.9).has_value());
  CHECK(!tailPercentile(oneTo(1000), 1.0).has_value());
}

void testTallyCountsOnce() {
  corebench::OpTally t;
  CHECK(t.run([] { return true; }));
  CHECK(!t.run([] { return false; }));  // failed check
  CHECK(!t.run([]() -> bool { throw std::runtime_error("boom"); }));
  CHECK(!t.run([]() -> bool { throw 42; }));
  CHECK(t.attempted == 4);
  CHECK(t.failed == 3);
  CHECK(t.errors.size() == 3);
  CHECK(std::fabs(t.failedFrac() - 0.75) < 1e-12);
}

/// A fake clock the fake service advances.
struct FakeClock {
  double t = 0.0;
};

void testClosedLoopLatencySpansSubmitToAwait() {
  // One tester; submit costs 2 s and await 3 s of fake time, so each
  // latency is exactly 5 s: it starts before submit() and ends after
  // await() returns.
  FakeClock clock;
  int next = 0;
  const corebench::ClosedLoopResult r = corebench::runClosedLoop(
      1, 12.0, [&] { return clock.t; },
      [&] {
        clock.t += 2.0;
        return next++;
      },
      [&](int) {
        clock.t += 3.0;
        return true;
      });
  // Requests start at t = 0, 5, 10; the third completes at 15 > 12.
  CHECK(r.latencies.size() == 3);
  for (const double l : r.latencies) CHECK(l == 5.0);
  CHECK(r.tally.attempted == 3);
  CHECK(r.tally.failed == 0);
  CHECK(r.wall_seconds == 15.0);
}

void testClosedLoopQueueWaitCounts() {
  // Two testers awaited oldest first: the second request's latency
  // includes the time the load generator spent awaiting the first.
  FakeClock clock;
  int next = 0;
  const corebench::ClosedLoopResult r = corebench::runClosedLoop(
      2, 1.0, [&] { return clock.t; },
      [&] {
        clock.t += 1.0;
        return next++;
      },
      [&](int) {
        clock.t += 4.0;
        return true;
      });
  // A: submit [0,1]; B: submit [1,2]; await A -> 6; await B -> 10.
  CHECK(r.latencies.size() == 2);
  CHECK(r.latencies.size() == 2 && r.latencies[0] == 6.0);
  CHECK(r.latencies.size() == 2 && r.latencies[1] == 9.0);
}

void testClosedLoopFailuresCountOnce() {
  // Request 1 throws in await, request 2 fails its output check, request 3
  // is refused at submit; each counts once against attempts.
  FakeClock clock;
  int next = 0;
  const corebench::ClosedLoopResult r = corebench::runClosedLoop(
      1, 6.5, [&] { return clock.t; },
      [&] {
        clock.t += 1.0;
        if (next == 3) {
          ++next;
          throw std::runtime_error("quota");
        }
        return next++;
      },
      [&](int id) {
        clock.t += 1.0;
        if (id == 1) throw std::runtime_error("campaign failed");
        return id != 2;
      });
  // t: 0 submit 0 -> 1, await -> 2 ok; submit 1 -> 3, await -> 4 throws;
  // submit 2 -> 5, await -> 6 check fails; submit 3 refused at 7. The
  // refusal leaves nothing in flight, so the loop ends.
  CHECK(r.tally.attempted == 4);
  CHECK(r.tally.failed == 3);
  CHECK(r.latencies.size() == 1);
  CHECK(r.tally.errors.size() == 3);
}

}  // namespace

int main() {
  testMedian();
  testMeanOfMedians();
  testHostSpeedFactor();
  testTailPercentile();
  testTallyCountsOnce();
  testClosedLoopLatencySpansSubmitToAwait();
  testClosedLoopQueueWaitCounts();
  testClosedLoopFailuresCountOnce();
  if (g_failures != 0) {
    std::fprintf(stderr, "corebench_selftest: %d check(s) failed\n",
                 g_failures);
    return 1;
  }
  std::printf("corebench_selftest: all checks passed\n");
  return 0;
}
