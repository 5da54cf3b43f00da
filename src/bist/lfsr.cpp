#include "bist/lfsr.hpp"

#include <stdexcept>

namespace corebist {

namespace {
// Exponents of one primitive polynomial per width (x^w + x^a + x^b ... + 1),
// from the classic maximal-length LFSR tap tables (XAPP052 and Bardell,
// McAnney & Savir). Exponent list excludes w and 0.
const std::vector<int>& polyExponents(int width) {
  static const std::vector<std::vector<int>> table = {
      /* 3*/ {2},          /* 4*/ {3},        /* 5*/ {3},
      /* 6*/ {5},          /* 7*/ {6},        /* 8*/ {6, 5, 4},
      /* 9*/ {5},          /*10*/ {7},        /*11*/ {9},
      /*12*/ {11, 10, 4},  /*13*/ {12, 11, 8}, /*14*/ {13, 12, 2},
      /*15*/ {14},         /*16*/ {15, 13, 4}, /*17*/ {14},
      /*18*/ {11},         /*19*/ {18, 17, 14}, /*20*/ {17},
      /*21*/ {19},         /*22*/ {21},       /*23*/ {18},
      /*24*/ {23, 22, 17}, /*25*/ {22},       /*26*/ {25, 24, 20},
      /*27*/ {26, 25, 22}, /*28*/ {25},       /*29*/ {27},
      /*30*/ {29, 28, 7},  /*31*/ {28},       /*32*/ {22, 2, 1},
  };
  if (width < 3 || width > 32) {
    throw std::invalid_argument("primitiveTaps: width must be in [3,32]");
  }
  return table[static_cast<std::size_t>(width - 3)];
}

/// Register mask of an ALFSR `width` bits wide; throws before shifting when
/// the width is out of range.
std::uint64_t alfsrMask(int width) {
  if (width < 2 || width > 64) {
    throw std::invalid_argument("Alfsr: width out of range");
  }
  return width == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
}
}  // namespace

std::vector<int> primitiveTaps(int width) {
  std::vector<int> taps;
  taps.push_back(width - 1);
  for (const int e : polyExponents(width)) taps.push_back(e - 1);
  return taps;
}

Alfsr::Alfsr(int width, std::uint64_t seed)
    : Alfsr(width, primitiveTaps(width), seed) {}

Alfsr::Alfsr(int width, std::vector<int> taps, std::uint64_t seed)
    : mask_(alfsrMask(width)), taps_(std::move(taps)), state_(seed & mask_) {
  for (const int t : taps_) {
    if (t < 0 || t >= width) throw std::invalid_argument("Alfsr: bad tap");
  }
  if (state_ == 0) state_ = 1;  // the all-zero state is a lockup
}

std::uint64_t Alfsr::step() {
  std::uint64_t fb = 0;
  for (const int t : taps_) fb ^= (state_ >> t) & 1u;
  state_ = ((state_ << 1) | fb) & mask_;
  return state_;
}

std::uint64_t Alfsr::measuredPeriod(std::uint64_t limit) {
  const std::uint64_t start = state_;
  for (std::uint64_t n = 1; n <= limit; ++n) {
    if (step() == start) return n;
  }
  return 0;  // not periodic within limit
}

AlfsrHw buildAlfsrHw(Builder& b, int width, const std::vector<int>& taps,
                     std::uint64_t seed, NetId en, NetId load) {
  const Bus q = b.state("alfsr", width);
  Bus fb_bits;
  for (const int t : taps) fb_bits.push_back(q[static_cast<std::size_t>(t)]);
  const NetId fb = b.reduceXor(fb_bits);
  // next = load ? seed : (en ? {q << 1, fb} : q)
  Bus shifted;
  shifted.push_back(fb);
  for (int i = 0; i + 1 < width; ++i) shifted.push_back(q[static_cast<std::size_t>(i)]);
  const Bus seed_bus = b.constant(width, seed == 0 ? 1 : seed);
  const Bus next = b.mux(b.mux(q, shifted, en), seed_bus, load);
  b.connect(q, next);
  return AlfsrHw{q};
}

}  // namespace corebist
