// Host-speed calibration for the result line's times.
//
// On a shared virtual machine the host runs the same code 10-35% slower for
// tens of seconds to minutes at a time as other tenants come and go, and
// every workload's times drift with it: consecutive runs read a trend, not
// noise around a level, and no statistic within one run takes that out. A
// fixed reference kernel (a dependent chain of scalar arithmetic, then a
// pointer chase through a 256 KiB table that stays in the core's L2; no
// library code, built apart from the library's flags) is timed on the
// benchmark's own thread at the run's idle points: at both ends of the
// timed window and between passes. Its median over the run against its time
// on the reference host gives host_speed_factor (< 1 on a slower host); the
// result line's times are the measured ones scaled by it, so that they read
// as seconds at the reference host's speed. The times as measured are
// printed and recorded next to them.
//
// The table stays out of the shared L3 on purpose: a chase through an 8 MiB
// table swung 0.6x-2.7x within one run while the passes moved 10%, and
// scaling by it spread atpg_fullscan's runs wider than not scaling at all.
#ifndef COREBENCH_HOSTSPEED_HPP_
#define COREBENCH_HOSTSPEED_HPP_

#include <string>
#include <vector>

namespace corebench {

/// Median seconds of one reference kernel run on the reference host (a
/// shared 4-vCPU Xeon VM with AVX-512, GCC 12). A constant of the
/// benchmark: it sets the scale of the scaled times, not their spread.
inline constexpr double kReferenceKernelSeconds = 0.0030;

/// Kernel runs at an idle point between passes, and at each end of the
/// timed window (the soc_floor loop has no idle point inside it).
inline constexpr int kSamplesBetweenOps = 8;
inline constexpr int kSamplesAtWindowEnds = 48;

/// kReferenceKernelSeconds over the median of `kernel_seconds`; 1 when
/// there are none.
[[nodiscard]] double hostSpeedFactor(const std::vector<double>& kernel_seconds);

/// The kernel times of one run.
class HostSpeed {
 public:
  /// Time the kernel `n` times on this thread. No operation may be in
  /// flight. Returns the seconds spent.
  double sample(int n);

  [[nodiscard]] double factor() const { return hostSpeedFactor(secs_); }
  /// "host speed: factor ... (kernel median ... s over ... samples ...)".
  [[nodiscard]] std::string note() const;

 private:
  std::vector<double> secs_;
  double process_cpu_s_ = 0.0;  // process CPU seconds while sampling
  double wall_s_ = 0.0;         // wall seconds while sampling
};

}  // namespace corebench

#endif  // COREBENCH_HOSTSPEED_HPP_
