#include "fault/fault_sim.hpp"

#include <algorithm>
#include <cassert>
#include <random>
#include <stdexcept>
#include <utility>

#include "fault/lane.hpp"

namespace corebist {

void checkWindows(const FaultSimOptions& opts) {
  if (opts.windows > kMaxWindows) {
    throw std::invalid_argument(
        "FaultSim: more than 64 windows; window masks hold one bit per "
        "window");
  }
}

std::vector<int> ladderStages(const FaultSimOptions& opts, int total_cycles) {
  std::vector<int> stages;
  const bool full_length =
      opts.windows > 0 || opts.misr || opts.record_detections > 0;
  if (!full_length && opts.drop_detected && opts.prepass_cycles > 0) {
    for (int c = opts.prepass_cycles; c < total_cycles; c *= 4) {
      stages.push_back(c);
      if (c > total_cycles / 4) break;  // 4c > total: never overflow
    }
  }
  stages.push_back(total_cycles);
  return stages;
}

FaultSimResult::FaultSimResult(std::size_t faults, const FaultSimOptions& opts)
    : total(faults) {
  first_detect.assign(faults, -1);
  if (opts.windows > 0) window_mask.assign(faults, 0);
  if (opts.misr) misr_detect.assign(faults, 0);
  if (opts.windows > 0 && opts.misr) {
    sig_words_per_fault = (opts.windows * opts.misr->width + 63) / 64;
    window_sig.assign(faults * static_cast<std::size_t>(sig_words_per_fault),
                      0);
  }
  if (opts.record_detections > 0) detect_patterns.assign(faults, {});
}

std::size_t FaultSimResult::recountDetected() {
  detected = static_cast<std::size_t>(
      std::count_if(first_detect.begin(), first_detect.end(),
                    [](std::int32_t fd) { return fd >= 0; }));
  return detected;
}

void PatternSource::fillWide(int start, int lane_words,
                             PatternBlock& out) const {
  assert(lane_words >= 1 && lane_words <= 8 &&
         "fillWide: lane_words out of [1,8]");
  const std::size_t wdt = width();
  const std::size_t wpi = static_cast<std::size_t>(lane_words);
  out.words_per_input = lane_words;
  out.inputs.assign(wdt * wpi, 0);
  const int n = std::min(patternCount() - start, lane_words * 64);
  assert(n >= 1 && "fillWide: past end of pattern source");
  out.count = std::max(n, 1);
  // Sub-blocks are materialized through the narrow fill() so wide and
  // narrow campaigns consume bit-identical stimulus (block-indexed random
  // sources derive their RNG stream per 64-lane sub-block).
  PatternBlock sub;
  for (int k = 0; 64 * k < out.count; ++k) {
    fill(start + 64 * k, sub);
    const std::uint64_t tail = sub.laneMask();
    for (std::size_t j = 0; j < wdt; ++j) {
      out.inputs[j * wpi + static_cast<std::size_t>(k)] =
          sub.inputs[j] & tail;
    }
  }
}

void CyclePatternSource::fill(int start, PatternBlock& out) const {
  const int n = std::min<int>(64, patternCount() - start);
  assert(n >= 1 && "CyclePatternSource: fill past end of pattern source");
  out.words_per_input = 1;
  out.count = std::max(n, 1);
  // Row k holds cycle start + k; after the transpose row j holds input j's
  // lanes, and rows past n stay zero.
  std::uint64_t m[64] = {};
  for (int k = 0; k < n; ++k) {
    m[k] = words_[static_cast<std::size_t>(start + k)];
  }
  transpose64(m);
  out.inputs.assign(m, m + width_);
}

void VectorPatternSource::append(std::span<const std::uint8_t> bits) {
  requirePatternWidth(width_, bits.size(), "VectorPatternSource::append");
  const int lane = count_ % 64;
  if (lane == 0) blocks_.emplace_back(width_, 0);
  auto& col = blocks_.back();
  for (std::size_t j = 0; j < width_; ++j) {
    if (bits[j] != 0) col[j] |= std::uint64_t{1} << lane;
  }
  ++count_;
}

void VectorPatternSource::appendBlock(PatternBlock block) {
  assert(count_ % 64 == 0 &&
         "VectorPatternSource: appendBlock on an unaligned source");
  assert(block.clampedWords() == 1 && block.inputs.size() == width_ &&
         "VectorPatternSource: appendBlock expects a narrow width-matched "
         "block");
  const int n = block.clampedCount();
  // Mask lanes past the block's count so a partial hand-built block can
  // never leak stale bits into the campaign.
  const std::uint64_t mask = block.laneMask();
  auto& col = blocks_.emplace_back(std::move(block.inputs));
  for (auto& w : col) w &= mask;
  count_ += n;
}

void VectorPatternSource::fill(int start, PatternBlock& out) const {
  assert(start % 64 == 0 && "VectorPatternSource: unaligned fill");
  const int n = std::min<int>(64, count_ - start);
  assert(n >= 1 && "VectorPatternSource: fill past end of pattern source");
  out.words_per_input = 1;
  out.count = std::max(n, 1);
  const auto& col = blocks_[static_cast<std::size_t>(start / 64)];
  out.inputs.assign(col.begin(), col.end());
  if (n < 64 && n >= 1) {
    const std::uint64_t mask = out.laneMask();
    for (auto& w : out.inputs) w &= mask;
  }
}

void RandomPatternSource::fill(int start, PatternBlock& out) const {
  const int n = std::min<int>(64, patternCount() - start);
  assert(n >= 1 && "RandomPatternSource: fill past end of pattern source");
  // Block-indexed stream: the same block always gets the same patterns, no
  // matter which worker asks first.
  const std::uint64_t block = static_cast<std::uint64_t>(start / 64);
  std::mt19937_64 rng(seed_ ^ (0x9E3779B97F4A7C15ull * (block + 1)));
  out.words_per_input = 1;
  out.inputs.resize(width_);
  out.count = std::max(n, 1);
  for (auto& w : out.inputs) w = rng();
  if (n < 64) {
    // Lanes past the end carry unspecified values; mask them off so partial
    // blocks compare equal regardless of how the tail was generated.
    const std::uint64_t mask = out.laneMask();
    for (auto& w : out.inputs) w &= mask;
  }
}

}  // namespace corebist
