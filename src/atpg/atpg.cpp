#include "atpg/atpg.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>

#include "analyze/hazards.hpp"
#include "analyze/scoap.hpp"
#include "atpg/podem.hpp"
#include "fault/backend.hpp"

namespace corebist {

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The batch-grading engine: the wide comb kernel itself, or the requested
/// orchestrator (threaded or multi-process) sharding the fault list across
/// it when the caller asked for workers. `holder` owns the wrapper; the
/// returned pointer is whichever engine the batches should run on.
FaultSim* makeGrader(CombFaultSim& fsim, const FullScanAtpgOptions& opts,
                     std::unique_ptr<FaultSim>& holder) {
  if (opts.num_threads <= 1 || opts.grading_backend == FsimBackend::kSerial) {
    return &fsim;
  }
  FsimBackendOptions bopts;
  bopts.backend = opts.grading_backend;
  bopts.num_workers = opts.num_threads;
  holder = makeOrchestrator(fsim, bopts);
  return holder.get();
}

PatternBlock randomBlock(std::mt19937_64& rng, std::size_t width) {
  PatternBlock blk;
  blk.inputs.resize(width);
  for (auto& w : blk.inputs) w = rng();
  blk.count = 64;
  return blk;
}

/// v2 = v1 with every chain shifted one position (launch-on-shift), the
/// incoming scan bit random, functional PIs held.
PatternBlock losSuccessor(const PatternBlock& v1, const ScanView& view,
                          std::mt19937_64& rng) {
  PatternBlock v2 = v1;
  std::size_t base = static_cast<std::size_t>(view.num_functional_inputs);
  for (const auto& chain : view.chains) {
    // inputs[base + k] corresponds to chain cell k; a shift moves cell k-1's
    // value into cell k, with a fresh bit entering cell 0.
    for (std::size_t k = chain.size(); k-- > 1;) {
      v2.inputs[base + k] = v1.inputs[base + k - 1];
    }
    if (!chain.empty()) v2.inputs[base] = rng();
    base += chain.size();
  }
  return v2;
}

/// The faults not yet detected, in fault order: row k of a campaign over
/// `faults` is fault `idx[k]`. drop() compacts them in place after each
/// campaign, so grading costs O(live), not O(all faults).
struct Survivors {
  std::vector<Fault> faults;
  std::vector<std::size_t> idx;
  std::vector<char> detected;  // per fault of the full list

  explicit Survivors(std::span<const Fault> all)
      : faults(all.begin(), all.end()), idx(all.size()), detected(all.size()) {
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  }

  /// `capture` (`launch`: a pair campaign's v1 stream) on the survivors.
  FaultSimResult grade(FaultSim& grader, const PatternSource& capture,
                       const PatternSource* launch) const {
    FaultSimOptions fopts;
    fopts.cycles = capture.patternCount();
    fopts.prepass_cycles = 0;
    fopts.launch = launch;
    return grader.run(faults, capture, fopts);
  }

  /// Mark detected and drop every row of `rr` that first detects before
  /// pattern `cut`. Returns the latest such first detection, or -1.
  std::int32_t drop(const FaultSimResult& rr, std::int32_t cut) {
    std::int32_t last = -1;
    std::size_t kept = 0;
    for (std::size_t k = 0; k < idx.size(); ++k) {
      const std::int32_t fd = rr.first_detect[k];
      if (fd >= 0 && fd < cut) {
        detected[idx[k]] = 1;
        last = std::max(last, fd);
      } else {
        faults[kept] = faults[k];
        idx[kept++] = idx[k];
      }
    }
    faults.resize(kept);
    idx.resize(kept);
    return last;
  }
};

struct RandomPhase {
  std::size_t patterns = 0;  // applied, up to the stall cut
  std::size_t batches = 0;   // grading campaigns run
};

/// The random phase of runFullScanAtpg and runFullScanTransition:
/// `total_blocks` 64-pattern blocks graded with fault dropping,
/// `batch_patterns` (rounded up to whole blocks) per campaign; `append(blk)`
/// adds block `blk` to `capture` (and `launch`, for pair campaigns). The
/// phase stops after `stall_limit` consecutive blocks in which no fault
/// first detects, or once every fault is detected. The cut is replayed from
/// each campaign's first_detect rows: detections land on global pattern
/// indices, so the detected set and the applied-pattern count are those of
/// a block-at-a-time loop at any batch size, lane width and grading
/// backend. Detections past the cut are discarded.
template <class AppendBlock>
RandomPhase gradeRandomBlocks(FaultSim& grader, Survivors& live,
                              VectorPatternSource& capture,
                              VectorPatternSource* launch, int total_blocks,
                              int stall_limit, int batch_patterns,
                              AppendBlock append) {
  if (stall_limit < 1) {
    throw std::invalid_argument(
        "FullScanAtpgOptions::random_stall_blocks must be >= 1");
  }
  const int blocks_per_batch = std::max(1, (batch_patterns + 63) / 64);
  RandomPhase phase;
  int stall = 0;
  std::vector<char> block_yield;
  for (int blk = 0; blk < total_blocks && !live.idx.empty();) {
    capture.clear();
    if (launch != nullptr) launch->clear();
    for (int b = 0; b < blocks_per_batch && blk < total_blocks; ++b) {
      append(blk++);
    }
    const FaultSimResult rr = live.grade(grader, capture, launch);
    ++phase.batches;

    const int nblocks = capture.patternCount() / 64;
    block_yield.assign(static_cast<std::size_t>(nblocks), 0);
    for (const std::int32_t fd : rr.first_detect) {
      if (fd >= 0) block_yield[static_cast<std::size_t>(fd / 64)] = 1;
    }
    int cut = 0;
    while (cut < nblocks && stall < stall_limit) {
      stall = block_yield[static_cast<std::size_t>(cut++)] != 0 ? 0
                                                                : stall + 1;
    }
    const std::int32_t last = live.drop(rr, 64 * cut);
    // No fault left (so last >= 0): count up to the last detection's block.
    phase.patterns += static_cast<std::size_t>(
        64 * (live.idx.empty() ? last / 64 + 1 : cut));
    if (stall >= stall_limit) break;
  }
  return phase;
}

}  // namespace

FullScanAtpgResult runFullScanAtpg(const Netlist& scanned,
                                   const ScanView& view,
                                   std::span<const Fault> faults,
                                   const FullScanAtpgOptions& opts) {
  const auto t0 = Clock::now();
  FullScanAtpgResult res;
  res.total_faults = faults.size();

  CombFaultSim fsim(scanned, view.inputs, view.observed);
  Survivors live(faults);
  std::mt19937_64 rng(opts.seed);

  // Phase 1: random patterns with fault dropping and stall exit, graded on
  // the unsharded wide kernel: shards of a few dozen faults would each
  // re-simulate the good machine for every block.
  {
    const RandomPatternSource random(opts.seed, view.inputs.size(),
                                     opts.max_random_blocks * 64);
    VectorPatternSource capture(view.inputs.size());
    const auto append = [&](int blk) {
      PatternBlock b;
      random.fill(64 * blk, b);
      capture.appendBlock(std::move(b));
    };
    res.patterns += gradeRandomBlocks(fsim, live, capture, nullptr,
                                      opts.max_random_blocks,
                                      opts.random_stall_blocks,
                                      opts.batch_patterns, append)
                        .patterns;
  }

  // Phase 2: PODEM on survivors under the CPU budget. Candidate tests
  // accumulate into a VectorPatternSource batch (multi-block, so the wide
  // kernel's full lane width is used); each full batch is graded over the
  // entire surviving fault list through FaultSim::run, dropping collateral
  // detections across the whole batch before the next target is chosen.
  // Targets are not pre-marked detected: the batch campaign itself confirms
  // every PODEM test, so the detected set is exactly what fault simulation
  // proves.
  Podem podem(scanned, view.inputs, view.observed, opts.backtrack_limit);
  ScoapScores scoap;
  if (opts.use_scoap) {
    scoap = computeScoap(scanned, view.observed);
    podem.setScoap(&scoap);
  }
  std::unique_ptr<FaultSim> threaded;
  FaultSim* grader = makeGrader(fsim, opts, threaded);
  const int batch_cap = std::max(1, opts.batch_patterns);
  VectorPatternSource batch(view.inputs.size());
  std::vector<std::uint8_t> bits(view.inputs.size(), 0);
  std::vector<char> gave_up(faults.size(), 0);
  auto flushBatch = [&] {
    if (batch.patternCount() == 0) return;
    live.drop(live.grade(*grader, batch, nullptr), batch.patternCount());
    // Every kept candidate is part of the emitted test set, whether or not
    // the kernel's internal dropping stopped simulating early.
    res.patterns += static_cast<std::size_t>(batch.patternCount());
    ++res.batches;
    batch.clear();
  };

  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (live.detected[i] != 0) continue;
    if (secondsSince(t0) > opts.podem_budget_seconds) {
      gave_up[i] = 1;
      continue;
    }
    ++res.podem_calls;
    const auto test = podem.generate(faults[i]);
    res.backtracks += podem.backtracksUsed();
    if (!test.has_value()) {
      gave_up[i] = 1;
      continue;
    }
    for (std::size_t j = 0; j < test->size(); ++j) {
      bits[j] = (*test)[j] == Tv::kX
                    ? static_cast<std::uint8_t>(rng() & 1u)
                    : static_cast<std::uint8_t>((*test)[j] == Tv::k1 ? 1 : 0);
    }
    batch.append(bits);
    if (batch.patternCount() >= batch_cap) flushBatch();
  }
  flushBatch();

  // `aborted` is recomputed after the last flush: a fault whose own PODEM
  // run gave up can still fall to a later candidate's collateral coverage,
  // and counting it in both buckets used to let aborted + detected exceed
  // total_faults.
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (live.detected[i] != 0) {
      ++res.detected;
    } else if (gave_up[i] != 0) {
      ++res.aborted;
    }
  }
  res.test_cycles = view.testCycles(res.patterns);
  res.cpu_seconds = secondsSince(t0);
  return res;
}

FullScanAtpgResult runFullScanTransition(const Netlist& scanned,
                                         const ScanView& view,
                                         std::span<const Fault> tdf_faults,
                                         const FullScanAtpgOptions& opts) {
  const auto t0 = Clock::now();
  FullScanAtpgResult res;
  res.total_faults = tdf_faults.size();

  CombFaultSim fsim(scanned, view.inputs, view.observed);
  std::unique_ptr<FaultSim> threaded;
  FaultSim* grader = makeGrader(fsim, opts, threaded);
  Survivors live(tdf_faults);
  std::mt19937_64 rng(opts.seed ^ 0x7D0F0ull);

  // Random LOS pairs with fault dropping: whole 64-pair blocks accumulate
  // into launch/capture sources and each batch is one FaultSim::run pair
  // campaign (FaultSimOptions::launch). Block and stall budgets count
  // 64-pair blocks, twice the stuck-at ones. The shift constraint on v2 is
  // the structural reason TDF coverage trails stuck-at coverage here.
  VectorPatternSource launch(view.inputs.size());
  VectorPatternSource capture(view.inputs.size());
  const RandomPhase phase = gradeRandomBlocks(
      *grader, live, capture, &launch,
      opts.max_random_blocks * 2, opts.random_stall_blocks * 2,
      opts.batch_patterns, [&](int) {
        PatternBlock v1 = randomBlock(rng, view.inputs.size());
        capture.appendBlock(losSuccessor(v1, view, rng));
        launch.appendBlock(std::move(v1));
      });
  res.patterns = phase.patterns;
  res.batches = phase.batches;
  res.detected = tdf_faults.size() - live.idx.size();
  res.test_cycles = view.testCyclesTransition(res.patterns);
  res.cpu_seconds = secondsSince(t0);
  return res;
}

SeqAtpgResult runSequentialAtpg(const Netlist& module,
                                std::span<const Fault> faults,
                                const SeqAtpgOptions& opts) {
  const auto t0 = Clock::now();
  SeqAtpgResult res;
  res.total_faults = faults.size();

  // The candidate sequences below pack one cycle per 64-bit word (bit j
  // drives PI j), the format SeqFaultSim::run(faults, words, opts)
  // broadcasts. The shared packed-stimulus hazard rule
  // (analyze/hazards.hpp, the same limit the structural linter reports)
  // rejects modules whose PI count the `1 << j` shift cannot carry.
  requirePackedStimulusWidth(module, "runSequentialAtpg");
  const std::size_t n_inputs = module.primaryInputs().size();
  const std::unique_ptr<FaultSim> grader = makeOrchestrator(
      SeqFaultSim(module),
      {.backend = opts.num_threads > 1 ? FsimBackend::kThreaded
                                       : FsimBackend::kSerial,
       .num_workers = opts.num_threads});
  std::mt19937_64 rng(opts.seed);

  for (int cand = 0; cand < opts.candidates; ++cand) {
    // Weighted-random profile: each input gets an independent 1-probability
    // from {1/2, 1/4, 3/4, 1/8, 7/8}; slow-moving inputs emulate the
    // "functional-looking" sequences a simulation-based sequential ATPG
    // evolves toward.
    std::vector<int> weight(n_inputs);
    std::vector<int> hold(n_inputs);
    for (auto& w : weight) w = 1 + static_cast<int>(rng() % 7);  // /8 prob
    for (auto& h : hold) h = 1 << (rng() % 4);                   // dwell 1..8
    std::vector<std::uint64_t> seq(static_cast<std::size_t>(opts.sequence_cycles));
    std::uint64_t cur = 0;
    for (int c = 0; c < opts.sequence_cycles; ++c) {
      for (std::size_t j = 0; j < n_inputs; ++j) {
        if (c % hold[j] == 0) {
          const bool bit = static_cast<int>(rng() % 8) < weight[j];
          if (bit) {
            cur |= std::uint64_t{1} << j;
          } else {
            cur &= ~(std::uint64_t{1} << j);
          }
        }
      }
      seq[static_cast<std::size_t>(c)] = cur;
    }
    FaultSimOptions fopts;
    fopts.cycles = opts.sequence_cycles;
    fopts.prepass_cycles = 256;
    const FaultSimResult r =
        grader->run(faults, CyclePatternSource(seq, n_inputs), fopts);
    if (r.detected > res.detected) {
      res.detected = r.detected;
      res.best_sequence = std::move(seq);
      std::int32_t last = 0;
      for (const auto fd : r.first_detect) {
        if (fd > last) last = fd;
      }
      res.effective_cycles = static_cast<std::size_t>(last) + 1;
    }
  }
  res.cpu_seconds = secondsSince(t0);
  return res;
}

}  // namespace corebist
