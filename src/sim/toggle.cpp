#include "sim/toggle.hpp"

#include <algorithm>

namespace corebist {

void ToggleMonitor::observe(const CombSim& sim) {
  const auto& val = sim.values();
  if (!primed_) {
    std::copy(val.begin(), val.end(), prev_.begin());
    primed_ = true;
    return;
  }
  for (std::size_t n = 0; n < val.size(); ++n) {
    const std::uint64_t cur = val[n];
    const std::uint64_t was = prev_[n];
    rose_[n] |= cur & ~was;
    fell_[n] |= ~cur & was;
    prev_[n] = cur;
  }
}

double ToggleMonitor::toggleActivity() const {
  if (prev_.empty()) return 0.0;
  std::size_t toggled = 0;
  for (std::size_t n = 0; n < prev_.size(); ++n) {
    if (rose_[n] != 0 && fell_[n] != 0) ++toggled;
  }
  return static_cast<double>(toggled) / static_cast<double>(prev_.size());
}

}  // namespace corebist
