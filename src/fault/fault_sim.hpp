// Common fault-simulation kernel interface.
//
// Every fault-simulation campaign in the repo — BIST coverage curves,
// signature qualification, diagnosis dictionaries, ATPG random phases and
// the paper-table benches — is the same shape: a fault universe graded
// against a stream of test patterns, with per-fault detection records and
// optional fault dropping. `FaultSim` is the seam where the engines
// (pattern-parallel combinational, fault-parallel sequential) and the one
// sharding orchestrator (ShardedFaultSim, whose thread and fork executors
// back every FsimBackend but kSerial) meet, so consumers write one loop
// instead of three.
//
//   * `PatternSource` abstracts the stimulus: a recorded per-cycle word
//     stream (ALFSR output), a synthesized random stream, or anything else
//     that can serve 64-pattern blocks by index. Sources must be
//     thread-safe; parallel workers pull blocks concurrently.
//   * `FaultSim::run` grades a fault list against a source and returns
//     per-fault first-detection indices plus the optional window / MISR /
//     dictionary records the diagnosis flows need.
//   * `FaultSim::clone` hands each worker thread (or forked worker) a
//     private engine with its own scratch state over the same shared
//     (read-only) netlist.
#ifndef COREBIST_FAULT_FAULT_SIM_HPP_
#define COREBIST_FAULT_FAULT_SIM_HPP_

#include <cassert>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "analyze/hazards.hpp"
#include "fault/fault.hpp"
#include "netlist/netlist.hpp"

namespace corebist {

/// A block of patterns in PPSFP layout, `words_per_input` 64-bit words per
/// input position (input-major: `inputs[i * words_per_input + k]` is lane
/// word k of input i; bit b of lane word k is lane 64 * k + b of that
/// input). Combinational engines treat lanes as independent test patterns;
/// sequential stimulus views them as consecutive clock cycles. The narrow
/// legacy layout is words_per_input == 1 (the default), which every
/// hand-built block in the ATPG inner loops still uses — wide kernels
/// accept narrow blocks and mask off the missing lanes.
struct PatternBlock {
  std::vector<std::uint64_t> inputs;
  int words_per_input = 1;  // lane words per input, in [1, 8]
  int count = 64;  // number of meaningful lanes, in [1, 64 * words_per_input]

  [[nodiscard]] int clampedWords() const noexcept {
    assert(words_per_input >= 1 && words_per_input <= 8 &&
           "PatternBlock: words_per_input out of [1,8]");
    return words_per_input < 1 ? 1 : (words_per_input > 8 ? 8
                                                          : words_per_input);
  }

  /// `count` clamped into the valid [1, 64 * words_per_input] lane range.
  /// An out-of-range count is a caller bug: asserted in debug builds,
  /// clamped in release so a bad count can never silently yield an empty
  /// lane mask (which used to drop every detection of the block).
  [[nodiscard]] int clampedCount() const noexcept {
    const int max = 64 * clampedWords();
    assert(count >= 1 && count <= max && "PatternBlock: count out of range");
    return count < 1 ? 1 : (count > max ? max : count);
  }

  /// Mask of meaningful lanes inside lane word `k`.
  [[nodiscard]] std::uint64_t laneMaskWord(int k) const noexcept {
    const int c = clampedCount() - 64 * k;
    if (c <= 0) return 0;
    return c >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << c) - 1);
  }

  /// Lane mask of the first (or only) lane word — the whole mask for
  /// narrow blocks.
  [[nodiscard]] std::uint64_t laneMask() const noexcept {
    return laneMaskWord(0);
  }

  /// Lane word `k` of input `i`.
  [[nodiscard]] std::uint64_t word(std::size_t i, int k) const noexcept {
    return inputs[i * static_cast<std::size_t>(clampedWords()) +
                  static_cast<std::size_t>(k)];
  }
};

/// Bit-sliced MISR model: `feeds[j]` lists the output nets XOR-folded into
/// tap j (the paper folds wide module outputs into 16-bit MISRs through XOR
/// cascades). `poly` holds the feedback taps (bit j set => tap j receives
/// the MSB feedback), i.e. the characteristic polynomial minus x^width.
struct MisrSpec {
  int width = 16;
  std::uint64_t poly = 0;
  std::vector<std::vector<NetId>> feeds;
};

class PatternSource;

struct FaultSimOptions {
  /// Pattern budget of the campaign; <= 0 means "whole pattern source".
  /// Sequential engines apply one pattern per clock, so this is also the
  /// cycle count.
  int cycles = 4096;
  int prepass_cycles = 256;  // 0 disables the two-pass schedule
  bool drop_detected = true;
  /// >0: record a per-window detection mask per fault (diagnosis syndromes);
  /// implies full-length simulation of every fault. At most kMaxWindows.
  int windows = 0;
  /// Optional MISR compaction model (empirical aliasing measurement;
  /// sequential engines only).
  std::optional<MisrSpec> misr;
  /// Observation points; empty => primary outputs of the netlist.
  std::vector<NetId> observe;
  /// >0: record the first K detecting pattern indices per fault
  /// (stop-on-first-error diagnosis dictionaries). Combinational engines
  /// record up to K; sequential engines record the first detection only.
  int record_detections = 0;
  /// >0: stop the campaign after this many consecutive 64-pattern blocks
  /// with no new detection (random-pattern stall exit; combinational
  /// engines only — orchestrators strip it so shard-local stalls can never
  /// change the detected set).
  int stall_blocks = 0;
  /// Launch (v1) stimulus for transition-delay campaigns: when set,
  /// `patterns` serves the capture (v2) vectors, every block pair is applied
  /// through the pair-block path (detection evaluated on v2) and the fault
  /// list must be transition faults. Combinational engines only; must match
  /// `patterns` in width and pattern count. Not owned; the caller keeps the
  /// source alive for the duration of run().
  const PatternSource* launch = nullptr;
};

/// Window masks hold one bit per window in a std::uint64_t.
inline constexpr int kMaxWindows = 64;

/// Throws std::invalid_argument when opts.windows exceeds kMaxWindows. Every
/// engine and orchestrator calls it before simulating (or forking).
void checkWindows(const FaultSimOptions& opts);

struct FaultSimResult {
  std::vector<std::int32_t> first_detect;  // -1 => undetected at outputs
  std::vector<std::uint64_t> window_mask;  // per fault, when windows > 0
  std::vector<char> misr_detect;           // per fault, when misr set
  /// Per fault, when windows > 0 AND misr set: the XOR difference between
  /// the faulty and good MISR signatures at every window boundary, packed
  /// window-major (windows * misr.width bits -> sig_words per fault). This
  /// is exactly what reading the MISR through the Output Selector after
  /// every window yields, and is the BIST diagnosis syndrome of Table 5.
  std::vector<std::uint64_t> window_sig;
  int sig_words_per_fault = 0;
  /// Per fault, when record_detections > 0: detecting pattern indices in
  /// ascending order (at most `record_detections` entries).
  std::vector<std::vector<std::uint32_t>> detect_patterns;
  /// Patterns actually applied (== the budget unless a stall exit fired).
  std::size_t patterns_applied = 0;
  std::size_t detected = 0;
  std::size_t total = 0;

  [[nodiscard]] double coverage() const {
    return total == 0 ? 0.0
                      : 100.0 * static_cast<double>(detected) /
                            static_cast<double>(total);
  }

  /// Signature-qualified coverage (%): faults whose final MISR signature
  /// differs from the good machine, i.e. coverage() minus aliasing losses.
  /// Meaningful only for runs with `FaultSimOptions::misr` set.
  [[nodiscard]] double misrCoverage() const {
    std::size_t caught = 0;
    for (const char d : misr_detect) {
      if (d != 0) ++caught;
    }
    return total == 0 ? 0.0
                      : 100.0 * static_cast<double>(caught) /
                            static_cast<double>(total);
  }
};

/// Campaign stimulus: test patterns served as 64-lane blocks by index.
/// Implementations must be thread-safe — parallel workers fill blocks
/// concurrently and may revisit the same block in later passes.
class PatternSource {
 public:
  virtual ~PatternSource() = default;
  /// Total patterns the source can supply.
  [[nodiscard]] virtual int patternCount() const = 0;
  /// Input positions per pattern.
  [[nodiscard]] virtual std::size_t width() const = 0;
  /// Fill `out` (narrow PPSFP layout, words_per_input == 1) with up to 64
  /// patterns starting at `start`; `out.count` receives the number of valid
  /// lanes.
  virtual void fill(int start, PatternBlock& out) const = 0;
  /// Fill `out` (wide layout, words_per_input == lane_words) with up to
  /// 64 * lane_words patterns starting at `start`. The default assembles the
  /// wide block from per-64-lane `fill` calls, so every source's wide fills
  /// agree bit-for-bit with its narrow fills by construction — the anchor of
  /// the "results are identical at any lane width" guarantee. Sources may
  /// override for speed but must preserve that equivalence.
  virtual void fillWide(int start, int lane_words, PatternBlock& out) const;
  /// Fast path for narrow stimuli: one word per pattern (bit j drives input
  /// j), the natural layout of sequential per-cycle streams. An empty span
  /// means "not available, use fill()".
  [[nodiscard]] virtual std::span<const std::uint64_t> packedWords() const {
    return {};
  }
};

/// Recorded per-cycle stimulus (e.g. the ALFSR word stream of a BIST
/// session): word c bit j drives input j at pattern/cycle c.
///
/// Block-aligned fills are served from a thread-safe transposition cache:
/// each 64-cycle block is transposed once (word-level 64x64 transpose, not
/// the old bit-at-a-time loop) and memoized by block index, so the N comb
/// workers of a sharded campaign that all revisit the same ALFSR blocks pay
/// the transpose exactly once per block instead of once per worker pass.
class CyclePatternSource final : public PatternSource {
 public:
  /// `width` must fit one packed cycle word (one bit per input). The limit
  /// is the shared analyzer hazard rule — kMaxPackedStimulusInputs — and
  /// exceeding it throws std::invalid_argument.
  CyclePatternSource(std::span<const std::uint64_t> words, std::size_t width)
      : words_(words), width_(width) {
    requirePackedWidth(width, "CyclePatternSource");
  }

  [[nodiscard]] int patternCount() const override {
    return static_cast<int>(words_.size());
  }
  [[nodiscard]] std::size_t width() const override { return width_; }
  void fill(int start, PatternBlock& out) const override;
  [[nodiscard]] std::span<const std::uint64_t> packedWords() const override {
    return words_;
  }

 private:
  /// Transposed lanes of the 64-cycle block `block`, built on first use.
  /// The returned reference stays valid for the source's lifetime
  /// (unordered_map never invalidates value references on insert, and
  /// entries are never erased).
  [[nodiscard]] const std::vector<std::uint64_t>& transposedBlock(
      int block) const;

  std::span<const std::uint64_t> words_;
  std::size_t width_;
  mutable std::mutex cache_mu_;
  mutable std::unordered_map<int, std::vector<std::uint64_t>> cache_;
};

/// Hand-assembled patterns as a first-class campaign stimulus: an
/// append-only accumulator that serves standard 64-lane blocks, so
/// deterministic tests (PODEM candidates, LOS pair batches, debug vectors)
/// grade through the same `FaultSim::run` campaigns — fault dropping, wide
/// lanes, sharded backends — as recorded or random stimulus,
/// instead of hand-rolled per-fault detect() loops.
///
/// Patterns are stored column-major (one 64-lane word column per input per
/// block), i.e. already in PPSFP layout: fill() is a copy, not a transpose.
/// Thread-safe for concurrent fills once building stops; append/clear must
/// not race with a running campaign (the ATPG batch loops alternate
/// build -> grade -> clear).
class VectorPatternSource final : public PatternSource {
 public:
  explicit VectorPatternSource(std::size_t width) : width_(width) {}

  /// Append one pattern; `bits[j]` (0/1) drives input j. bits.size() must
  /// equal width().
  void append(std::span<const std::uint8_t> bits);
  /// Append a whole narrow block (words_per_input == 1, block.count
  /// patterns). The source must be 64-aligned (patternCount() % 64 == 0):
  /// the ATPG pair loops only ever append full hand-built blocks.
  void appendBlock(const PatternBlock& block);
  /// Drop all patterns (the accumulator is reused batch after batch).
  void clear() {
    blocks_.clear();
    count_ = 0;
  }

  [[nodiscard]] int patternCount() const override { return count_; }
  [[nodiscard]] std::size_t width() const override { return width_; }
  void fill(int start, PatternBlock& out) const override;

 private:
  std::size_t width_;
  int count_ = 0;
  /// One column-major 64-lane block per entry: blocks_[b][j] holds lanes
  /// [64b, 64b+64) of input j.
  std::vector<std::vector<std::uint64_t>> blocks_;
};

/// Uniform-random patterns of arbitrary width (full-scan random phases,
/// dictionary construction). Each 64-pattern block derives its own RNG
/// stream from (seed, block index), so any worker can materialize any block
/// independently and the campaign is reproducible under any schedule.
class RandomPatternSource final : public PatternSource {
 public:
  RandomPatternSource(std::uint64_t seed, std::size_t width, int count)
      : seed_(seed), width_(width), count_(count) {}

  [[nodiscard]] int patternCount() const override { return count_; }
  [[nodiscard]] std::size_t width() const override { return width_; }
  void fill(int start, PatternBlock& out) const override;

 private:
  std::uint64_t seed_;
  std::size_t width_;
  int count_;
};

/// Abstract fault-simulation engine: grade faults against patterns.
class FaultSim {
 public:
  virtual ~FaultSim() = default;

  [[nodiscard]] virtual const Netlist& netlist() const noexcept = 0;

  /// Simulate `faults` against `patterns` and return per-fault results.
  /// Engines may reorder internal work freely but results are functions of
  /// (fault, pattern stream) only, so any schedule yields identical output.
  [[nodiscard]] virtual FaultSimResult run(std::span<const Fault> faults,
                                           const PatternSource& patterns,
                                           const FaultSimOptions& opts) = 0;

  /// Fresh engine with private scratch state over the same shared netlist,
  /// for worker threads.
  [[nodiscard]] virtual std::unique_ptr<FaultSim> clone() const = 0;
};

}  // namespace corebist

#endif  // COREBIST_FAULT_FAULT_SIM_HPP_
