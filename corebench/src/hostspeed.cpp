#include "hostspeed.hpp"

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>

#include "stats.hpp"

namespace corebench {

namespace {

// 256 KiB: inside one core's L2, so the chase feels that core (and a
// neighbour on it) without the shared L3, whose latency swings far more
// than any workload's pass time does.
constexpr std::uint32_t kChaseEntries = std::uint32_t{1} << 16;
constexpr int kArithSteps = 1'000'000;
constexpr int kChaseSteps = 200'000;

// The kernel's result is stored here so the compiler cannot drop the work.
volatile std::uint64_t g_sink = 0;

double seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double processCpuSeconds() {
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// A full-period LCG over the entries, so each chase step is a dependent
/// load the prefetcher cannot predict.
const std::vector<std::uint32_t>& chaseTable() {
  static const std::vector<std::uint32_t> table = [] {
    std::vector<std::uint32_t> t(kChaseEntries);
    for (std::uint32_t i = 0; i < kChaseEntries; ++i) {
      t[i] = (i * 1664525u + 1013904223u) & (kChaseEntries - 1);
    }
    return t;
  }();
  return table;
}

/// One kernel run; returns its seconds.
double kernel() {
  const std::vector<std::uint32_t>& table = chaseTable();
  const double t0 = seconds();
  std::uint64_t x = 1;
  for (int i = 0; i < kArithSteps; ++i) {
    x = (x * 6364136223846793005ull + 1442695040888963407ull) ^ (x >> 29);
  }
  std::uint32_t p = static_cast<std::uint32_t>(x) & (kChaseEntries - 1);
  for (int i = 0; i < kChaseSteps; ++i) p = table[p];
  g_sink = x + p;
  return seconds() - t0;
}

}  // namespace

double hostSpeedFactor(const std::vector<double>& kernel_seconds) {
  if (kernel_seconds.empty()) return 1.0;
  return kReferenceKernelSeconds / median(kernel_seconds);
}

double HostSpeed::sample(int n) {
  const double t0 = seconds();
  const double cpu0 = processCpuSeconds();
  for (int i = 0; i < n; ++i) secs_.push_back(kernel());
  const double spent = seconds() - t0;
  wall_s_ += spent;
  process_cpu_s_ += processCpuSeconds() - cpu0;
  return spent;
}

std::string HostSpeed::note() const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "host speed: factor %.4f (reference kernel %.3f ms on the "
                "reference host, median %.3f ms over %zu samples here; "
                "process CPU while sampling %.2f x wall, 1 when only the "
                "kernel ran)",
                factor(), 1e3 * kReferenceKernelSeconds,
                1e3 * kReferenceKernelSeconds / factor(), secs_.size(),
                wall_s_ > 0.0 ? process_cpu_s_ / wall_s_ : 0.0);
  return buf;
}

}  // namespace corebench
