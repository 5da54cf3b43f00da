// Wide-lane value type for the pattern-parallel fault-simulation kernel.
//
// A LaneWord<W> packs W * 64 independent simulation lanes (test patterns)
// into W machine words, generalizing the classic one-word PPSFP scheme: the
// same gate evaluation and event-driven propagation run unchanged, but every
// pass over the fault cone grades W * 64 patterns instead of 64, amortizing
// the per-gate bookkeeping (queue pushes, level buckets, stamp checks,
// fanout walks) that dominates the narrow kernel.
//
// The default width is kLaneWords (4 -> 256 lanes, overridable with
// -DCOREBIST_LANE_WORDS=n). Bitwise operations have an AVX-512 path (W == 8,
// one 512-bit op per LaneWord) and an AVX2 path (W == 4) when the
// translation unit is compiled with those ISAs enabled, and a portable
// multi-word fallback otherwise; -DCOREBIST_PORTABLE_LANES forces the
// fallback regardless of what the compiler flags enable (the CMake option of
// the same name). LaneWord itself stores plain uint64_t words (no vector
// members), so objects cross TU boundaries safely regardless of which path
// each side compiled.
//
// Lane -> pattern index math: lane L of the block starting at global pattern
// index S is pattern S + L, with L = 64 * word + bit. All per-lane records
// (first_detect, window masks, dictionary entries) are derived from these
// global indices, which is why results are byte-identical at any W.
#ifndef COREBIST_FAULT_LANE_HPP_
#define COREBIST_FAULT_LANE_HPP_

#include <bit>
#include <cstdint>

// ISA selection: COREBIST_PORTABLE_LANES (the CMake escape hatch) wins over
// whatever the compiler flags enable, so a portable build stays portable
// even under -march=native toolchain defaults.
#if !defined(COREBIST_PORTABLE_LANES) && defined(__AVX512F__)
#define COREBIST_LANE_AVX512 1
#endif
#if !defined(COREBIST_PORTABLE_LANES) && defined(__AVX2__)
#define COREBIST_LANE_AVX2 1
#endif
#if defined(COREBIST_LANE_AVX512) || defined(COREBIST_LANE_AVX2)
#include <immintrin.h>
#endif

namespace corebist {

/// Compile-time ISA of the lane kernel in this build. Recorded in the bench
/// JSONs (all three) so perf trajectories across heterogeneous runners are
/// interpretable: "avx512" / "avx2" / "portable".
inline constexpr const char* kLaneBackend =
#if defined(COREBIST_LANE_AVX512)
    "avx512";
#elif defined(COREBIST_LANE_AVX2)
    "avx2";
#else
    "portable";
#endif

#ifndef COREBIST_LANE_WORDS
#define COREBIST_LANE_WORDS 4
#endif

/// 64-bit words per simulation block in the default wide kernel
/// (kLaneWords * 64 lanes per block).
inline constexpr int kLaneWords = COREBIST_LANE_WORDS;

static_assert(kLaneWords >= 1 && kLaneWords <= 8,
              "COREBIST_LANE_WORDS must be in [1, 8]");

/// W * 64 pattern lanes as a flat value type. Bit k of word j is lane
/// 64 * j + k. All operations are lane-wise.
template <int W>
struct LaneWord {
  static_assert(W >= 1 && W <= 8, "LaneWord: width out of range");
  static constexpr int kWords = W;
  static constexpr int kLanes = 64 * W;

  std::uint64_t w[W];

  [[nodiscard]] static constexpr LaneWord zero() noexcept {
    return LaneWord{};  // value-initialized words are 0
  }

  [[nodiscard]] static constexpr LaneWord ones() noexcept {
    LaneWord r{};
    for (int i = 0; i < W; ++i) r.w[i] = ~std::uint64_t{0};
    return r;
  }

  /// Mask with the lowest `n` lanes set, n in [0, kLanes].
  [[nodiscard]] static constexpr LaneWord lowLanes(int n) noexcept {
    LaneWord r{};
    for (int i = 0; i < W; ++i) {
      const int lo = 64 * i;
      if (n >= lo + 64) {
        r.w[i] = ~std::uint64_t{0};
      } else if (n > lo) {
        r.w[i] = (std::uint64_t{1} << (n - lo)) - 1;
      }
    }
    return r;
  }

  [[nodiscard]] constexpr std::uint64_t word(int k) const noexcept {
    return w[k];
  }

  [[nodiscard]] bool any() const noexcept {
#if defined(COREBIST_LANE_AVX512)
    if constexpr (W == 8) {
      const __m512i v = _mm512_loadu_si512(w);
      return _mm512_test_epi64_mask(v, v) != 0;
    }
#endif
#if defined(COREBIST_LANE_AVX2)
    if constexpr (W == 4) {
      const __m256i v =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w));
      return _mm256_testz_si256(v, v) == 0;
    }
    if constexpr (W == 8) {
      const __m256i lo =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w));
      const __m256i hi =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + 4));
      const __m256i v = _mm256_or_si256(lo, hi);
      return _mm256_testz_si256(v, v) == 0;
    }
#endif
    std::uint64_t acc = 0;
    for (int i = 0; i < W; ++i) acc |= w[i];
    return acc != 0;
  }

  [[nodiscard]] bool none() const noexcept { return !any(); }

  /// Index of the lowest set lane, or kLanes if empty.
  [[nodiscard]] int firstLane() const noexcept {
    for (int i = 0; i < W; ++i) {
      if (w[i] != 0) return 64 * i + std::countr_zero(w[i]);
    }
    return kLanes;
  }

  [[nodiscard]] int popcount() const noexcept {
    int n = 0;
    for (int i = 0; i < W; ++i) n += std::popcount(w[i]);
    return n;
  }

  friend bool operator==(const LaneWord&, const LaneWord&) = default;

  [[nodiscard]] friend LaneWord operator&(const LaneWord& a,
                                          const LaneWord& b) noexcept {
    LaneWord r;
#if defined(COREBIST_LANE_AVX512)
    if constexpr (W == 8) {
      _mm512_storeu_si512(r.w, _mm512_and_si512(_mm512_loadu_si512(a.w),
                                                _mm512_loadu_si512(b.w)));
      return r;
    }
#endif
#if defined(COREBIST_LANE_AVX2)
    if constexpr (W == 4) {
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(r.w),
          _mm256_and_si256(
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a.w)),
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b.w))));
      return r;
    }
#endif
    for (int i = 0; i < W; ++i) r.w[i] = a.w[i] & b.w[i];
    return r;
  }

  [[nodiscard]] friend LaneWord operator|(const LaneWord& a,
                                          const LaneWord& b) noexcept {
    LaneWord r;
#if defined(COREBIST_LANE_AVX512)
    if constexpr (W == 8) {
      _mm512_storeu_si512(r.w, _mm512_or_si512(_mm512_loadu_si512(a.w),
                                               _mm512_loadu_si512(b.w)));
      return r;
    }
#endif
#if defined(COREBIST_LANE_AVX2)
    if constexpr (W == 4) {
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(r.w),
          _mm256_or_si256(
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a.w)),
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b.w))));
      return r;
    }
#endif
    for (int i = 0; i < W; ++i) r.w[i] = a.w[i] | b.w[i];
    return r;
  }

  [[nodiscard]] friend LaneWord operator^(const LaneWord& a,
                                          const LaneWord& b) noexcept {
    LaneWord r;
#if defined(COREBIST_LANE_AVX512)
    if constexpr (W == 8) {
      _mm512_storeu_si512(r.w, _mm512_xor_si512(_mm512_loadu_si512(a.w),
                                                _mm512_loadu_si512(b.w)));
      return r;
    }
#endif
#if defined(COREBIST_LANE_AVX2)
    if constexpr (W == 4) {
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(r.w),
          _mm256_xor_si256(
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a.w)),
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b.w))));
      return r;
    }
#endif
    for (int i = 0; i < W; ++i) r.w[i] = a.w[i] ^ b.w[i];
    return r;
  }

  [[nodiscard]] friend LaneWord operator~(const LaneWord& a) noexcept {
    LaneWord r;
#if defined(COREBIST_LANE_AVX512)
    if constexpr (W == 8) {
      _mm512_storeu_si512(
          r.w, _mm512_xor_si512(_mm512_loadu_si512(a.w),
                                _mm512_set1_epi64(-1)));
      return r;
    }
#endif
#if defined(COREBIST_LANE_AVX2)
    if constexpr (W == 4) {
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(r.w),
          _mm256_xor_si256(
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a.w)),
              _mm256_set1_epi64x(-1)));
      return r;
    }
#endif
    for (int i = 0; i < W; ++i) r.w[i] = ~a.w[i];
    return r;
  }

  LaneWord& operator&=(const LaneWord& o) noexcept { return *this = *this & o; }
  LaneWord& operator|=(const LaneWord& o) noexcept { return *this = *this | o; }
  LaneWord& operator^=(const LaneWord& o) noexcept { return *this = *this ^ o; }
};

/// In-place 64x64 bit-matrix transpose, LSB-first on both axes: after the
/// call, bit k of a[j] is the old bit j of a[k]. Used to turn 64 per-cycle
/// stimulus words into the PPSFP per-input lane layout with 6 * 32 word
/// operations instead of a 64 * width bit loop.
inline void transpose64(std::uint64_t a[64]) noexcept {
  std::uint64_t m = 0x0000'0000'FFFF'FFFFull;
  for (int j = 32; j != 0; j >>= 1, m ^= m << j) {
    for (int k = 0; k < 64; k = (k + j + 1) & ~j) {
      const std::uint64_t t = ((a[k] >> j) ^ a[k + j]) & m;
      a[k] ^= t << j;
      a[k + j] ^= t;
    }
  }
}

}  // namespace corebist

#endif  // COREBIST_FAULT_LANE_HPP_
