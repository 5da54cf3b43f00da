#include "atpg/atpg.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <map>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>

#include "analyze/collapse.hpp"
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

/// For each fault, the index of an earlier span entry it is
/// observation-aware equivalent to (analyze/collapse.hpp), or -1 when it is
/// the first of its class (or outside the stuck-at universe). The target
/// loop skips a member only when its leader's search concluded something —
/// a generated test (which detects every member: equivalent faults have
/// identical faulty functions) or a completed untestability proof.
std::vector<std::ptrdiff_t> equivalentLeaders(const Netlist& scanned,
                                              std::span<const NetId> observed,
                                              std::span<const Fault> faults) {
  std::vector<std::ptrdiff_t> leader(faults.size(), -1);
  const CollapseResult coll = collapseStuckAt(scanned, observed);
  using Key = std::array<std::uint32_t, 4>;
  const auto keyOf = [](const Fault& f) {
    return Key{f.net, f.gate, f.pin, static_cast<std::uint32_t>(f.kind)};
  };
  std::map<Key, std::size_t> class_of;
  for (std::size_t i = 0; i < coll.universe.size(); ++i) {
    class_of.emplace(keyOf(coll.universe[i]), coll.class_of[i]);
  }
  std::map<std::size_t, std::size_t> first_in_span;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (!isStuckAt(faults[i].kind)) continue;
    const auto it = class_of.find(keyOf(faults[i]));
    if (it == class_of.end()) continue;
    const auto [fit, inserted] = first_in_span.emplace(it->second, i);
    if (!inserted) leader[i] = static_cast<std::ptrdiff_t>(fit->second);
  }
  return leader;
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
  std::vector<char> detected(faults.size(), 0);
  std::mt19937_64 rng(opts.seed);

  // Phase 1: random patterns with fault dropping and stall exit, one
  // kernel campaign instead of a hand-rolled block loop.
  {
    const RandomPatternSource random_patterns(opts.seed, view.inputs.size(),
                                              opts.max_random_blocks * 64);
    FaultSimOptions fopts;
    fopts.cycles = opts.max_random_blocks * 64;
    fopts.prepass_cycles = 0;
    fopts.stall_blocks = opts.random_stall_blocks;
    const FaultSimResult rr = fsim.run(faults, random_patterns, fopts);
    for (std::size_t i = 0; i < faults.size(); ++i) {
      if (rr.first_detect[i] >= 0) detected[i] = 1;
    }
    res.patterns += rr.patterns_applied;
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
  std::vector<std::ptrdiff_t> leader;
  // Per-fault PODEM outcome, kept only for equivalence skipping:
  // 0 = not targeted, 1 = test generated, 2 = proven untestable by a
  // complete search, 3 = aborted (budget ran out, nothing proven).
  std::vector<char> outcome;
  if (opts.collapse_faults) {
    leader = equivalentLeaders(scanned, view.observed, faults);
    outcome.assign(faults.size(), 0);
  }
  std::unique_ptr<FaultSim> threaded;
  FaultSim* grader = makeGrader(fsim, opts, threaded);
  const int batch_cap = std::max(1, opts.batch_patterns);
  VectorPatternSource batch(view.inputs.size());
  std::vector<std::uint8_t> bits(view.inputs.size(), 0);
  std::vector<char> gave_up(faults.size(), 0);
  std::vector<Fault> live;
  std::vector<std::size_t> live_idx;
  auto flushBatch = [&] {
    if (batch.patternCount() == 0) return;
    live.clear();
    live_idx.clear();
    for (std::size_t i = 0; i < faults.size(); ++i) {
      if (detected[i] == 0) {
        live.push_back(faults[i]);
        live_idx.push_back(i);
      }
    }
    FaultSimOptions fopts;
    fopts.cycles = batch.patternCount();
    fopts.prepass_cycles = 0;
    const FaultSimResult rr = grader->run(live, batch, fopts);
    for (std::size_t k = 0; k < live_idx.size(); ++k) {
      if (rr.first_detect[k] >= 0) detected[live_idx[k]] = 1;
    }
    // Every kept candidate is part of the emitted test set, whether or not
    // the kernel's internal dropping stopped simulating early.
    res.patterns += static_cast<std::size_t>(batch.patternCount());
    ++res.batches;
    batch.clear();
  };

  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (detected[i] != 0) continue;
    if (!leader.empty() && leader[i] >= 0) {
      // Equivalent to an earlier target. Skipping is sound in exactly two
      // cases: the leader produced a test (identical faulty functions mean
      // identical detecting-pattern sets, so the pending/graded test covers
      // this member too), or the leader's complete search proved the class
      // untestable. An *aborted* leader proves nothing — this member's own
      // search starts from a different fault site and may still succeed, so
      // it falls through to its own PODEM call.
      const char lo = outcome[static_cast<std::size_t>(leader[i])];
      if (lo == 1 || lo == 2) {
        ++res.collapsed_faults;
        continue;
      }
    }
    if (secondsSince(t0) > opts.podem_budget_seconds) {
      gave_up[i] = 1;
      continue;
    }
    ++res.podem_calls;
    const auto test = podem.generate(faults[i]);
    res.backtracks += podem.backtracksUsed();
    if (!test.has_value()) {
      gave_up[i] = 1;
      if (!outcome.empty()) outcome[i] = podem.lastAborted() ? 3 : 2;
      continue;
    }
    if (!outcome.empty()) outcome[i] = 1;
    for (std::size_t j = 0; j < test->size(); ++j) {
      bits[j] = (*test)[j] == Tv::kX
                    ? static_cast<std::uint8_t>(rng() & 1u)
                    : static_cast<std::uint8_t>((*test)[j] == Tv::k1 ? 1 : 0);
    }
    batch.append(bits);
    if (batch.patternCount() >= batch_cap) flushBatch();
  }
  flushBatch();

  // A skipped equivalence-class member shares its leader's fate: if the
  // leader gave up and nothing detected the member, it is aborted too.
  if (!leader.empty()) {
    for (std::size_t i = 0; i < faults.size(); ++i) {
      if (leader[i] >= 0 && detected[i] == 0 &&
          gave_up[static_cast<std::size_t>(leader[i])] != 0) {
        gave_up[i] = 1;
      }
    }
  }

  // `aborted` is recomputed after the last flush: a fault whose own PODEM
  // run gave up can still fall to a later candidate's collateral coverage,
  // and counting it in both buckets used to let aborted + detected exceed
  // total_faults.
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (detected[i] != 0) {
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
  std::vector<char> detected(tdf_faults.size(), 0);
  std::mt19937_64 rng(opts.seed ^ 0x7D0F0ull);

  // Random LOS pairs with fault dropping, batched: whole 64-pair blocks
  // accumulate into launch/capture VectorPatternSources and each batch is
  // one FaultSim::run pair campaign (FaultSimOptions::launch) over every
  // surviving fault. The shift constraint on v2 is the structural reason
  // TDF coverage trails stuck-at coverage here.
  //
  // The narrow driver's stall exit ("stop after random_stall_blocks * 2
  // consecutive no-yield 64-pair blocks") is replayed from the batch's
  // first_detect records: detections land on global pair indices, so the
  // per-block yield sequence — and therefore the exit point and the pattern
  // count — is byte-identical to the old block-at-a-time loop at any batch
  // size and thread count. Detections past the replayed cut are discarded,
  // exactly as if the campaign had stopped there.
  VectorPatternSource launch_src(view.inputs.size());
  VectorPatternSource capture_src(view.inputs.size());
  const int blocks_per_batch =
      std::max(1, (std::max(1, opts.batch_patterns) + 63) / 64);
  const int total_blocks = opts.max_random_blocks * 2;
  const int stall_limit = opts.random_stall_blocks * 2;
  int stall = 0;
  std::vector<Fault> live;
  std::vector<std::size_t> live_idx;
  std::vector<char> block_yield;
  for (int blk = 0; blk < total_blocks;) {
    live.clear();
    live_idx.clear();
    for (std::size_t i = 0; i < tdf_faults.size(); ++i) {
      if (detected[i] == 0) {
        live.push_back(tdf_faults[i]);
        live_idx.push_back(i);
      }
    }
    if (live.empty()) break;

    launch_src.clear();
    capture_src.clear();
    for (int b = 0; b < blocks_per_batch && blk < total_blocks; ++b, ++blk) {
      const PatternBlock v1 = randomBlock(rng, view.inputs.size());
      const PatternBlock v2 = losSuccessor(v1, view, rng);
      launch_src.appendBlock(v1);
      capture_src.appendBlock(v2);
    }
    FaultSimOptions fopts;
    fopts.cycles = capture_src.patternCount();
    fopts.prepass_cycles = 0;
    fopts.launch = &launch_src;
    const FaultSimResult rr = grader->run(live, capture_src, fopts);
    ++res.batches;

    // Replay the per-64-pair-block stall/early-stop accounting.
    const int nsub = capture_src.patternCount() / 64;
    block_yield.assign(static_cast<std::size_t>(nsub), 0);
    for (const std::int32_t fd : rr.first_detect) {
      if (fd >= 0) block_yield[static_cast<std::size_t>(fd / 64)] = 1;
    }
    int cut_sub = nsub;
    bool stall_exit = false;
    for (int s = 0; s < nsub; ++s) {
      stall = block_yield[static_cast<std::size_t>(s)] != 0 ? 0 : stall + 1;
      if (stall >= stall_limit) {
        cut_sub = s + 1;
        stall_exit = true;
        break;
      }
    }
    int last_retire_sub = -1;
    std::size_t accepted = 0;
    for (std::size_t k = 0; k < live_idx.size(); ++k) {
      const std::int32_t fd = rr.first_detect[k];
      if (fd >= 0 && fd < 64 * cut_sub) {
        detected[live_idx[k]] = 1;
        ++accepted;
        if (fd / 64 > last_retire_sub) last_retire_sub = fd / 64;
      }
    }
    int applied_sub = cut_sub;
    if (accepted == live_idx.size() && last_retire_sub + 1 < applied_sub) {
      applied_sub = last_retire_sub + 1;  // the block that emptied the list
    }
    res.patterns += static_cast<std::size_t>(64 * applied_sub);
    if (stall_exit) break;
  }

  for (const char d : detected) {
    if (d) ++res.detected;
  }
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
