#include "fault/seq_fsim.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "sim/comb_sim.hpp"

namespace corebist {

namespace {

/// One injected fault inside a simulation group.
struct InjectSite {
  std::uint64_t mask = 0;  // the machine bit this fault owns
  NetId net = kNullNet;
  int level = -1;  // injected once this level is complete; -1: source net
  GateId branch_gate = Fault::kNoGate;
  std::uint8_t branch_pin = 0;
  FaultKind kind = FaultKind::kSa0;
  std::uint64_t prev = 0;  // TDF: previous raw site value (in `mask` bit)
  std::uint32_t fault_index = 0;
};

struct GroupScratch {
  std::vector<std::uint64_t> val;     // per-net machine words
  std::vector<std::uint64_t> dcapt;   // DFF capture temp
  std::vector<std::uint64_t> misr;    // sliced MISR state
};

/// Replicates lane 0 of `w` across all 64 lanes.
inline std::uint64_t goodLane(std::uint64_t w) {
  return static_cast<std::uint64_t>(-static_cast<std::int64_t>(w & 1u));
}

}  // namespace

SeqFaultSim::SeqFaultSim(const Netlist& nl) : nl_(nl) {
  if (nl.primaryInputs().size() > 64) {
    throw std::invalid_argument(
        "SeqFaultSim: more than 64 primary inputs; pack the stimulus "
        "differently");
  }
  prog_ = std::make_shared<const GateProgram>(nl);
}

namespace {

/// Everything constant across groups, precomputed once per run.
struct RunContext {
  const Netlist* nl;
  const GateProgram* prog;
  std::vector<NetId> observe;
  std::span<const std::uint64_t> stimulus;
  const SeqFsimOptions* opts;
};

void simulateGroup(const RunContext& ctx, std::span<const Fault> faults,
                   std::span<const std::uint32_t> members,
                   GroupScratch& scratch, SeqFsimResult& result) {
  const Netlist& nl = *ctx.nl;
  const SeqFsimOptions& opts = *ctx.opts;
  const int cycles = opts.cycles;
  const bool want_windows = opts.windows > 0;
  const bool want_misr = opts.misr.has_value();

  // Build injection tables for this group.
  std::vector<InjectSite> source_sites;  // PI/state-net stems
  std::vector<InjectSite> gate_sites;    // gate-output stems + branches
  std::uint64_t group_mask = 0;
  for (std::size_t i = 0; i < members.size(); ++i) {
    const Fault& f = faults[members[i]];
    InjectSite s;
    s.mask = std::uint64_t{1} << (i + 1);  // bit 0 is the good machine
    group_mask |= s.mask;
    s.net = f.net;
    s.kind = f.kind;
    s.fault_index = members[i];
    if (f.isStem()) {
      s.level = ctx.prog->driverLevel(f.net);
      if (s.level < 0) {
        source_sites.push_back(s);
      } else {
        gate_sites.push_back(s);
      }
    } else {
      s.branch_gate = f.gate;
      s.branch_pin = f.pin;
      s.level = ctx.prog->level(f.gate);
      gate_sites.push_back(s);
    }
  }
  // Each site owns one machine bit, so sites of one level commute.
  std::sort(gate_sites.begin(), gate_sites.end(),
            [](const InjectSite& a, const InjectSite& b) {
              return a.level < b.level;
            });

  auto& val = scratch.val;
  std::fill(val.begin(), val.end(), 0);
  const auto& gates = nl.gates();
  const auto& dffs = nl.dffs();
  const auto& pis = nl.primaryInputs();

  // MISR state.
  const int misr_w = want_misr ? opts.misr->width : 0;
  scratch.misr.assign(static_cast<std::size_t>(misr_w), 0);

  std::uint64_t detected_word = 0;  // machines that diffed at an output
  std::vector<std::uint64_t> window_masks(want_windows ? members.size() : 0,
                                          0);
  const bool want_sigs = want_windows && want_misr;
  const int sig_words =
      want_sigs ? (opts.windows * misr_w + 63) / 64 : 0;
  std::vector<std::uint64_t> window_sigs(
      want_sigs ? members.size() * static_cast<std::size_t>(sig_words) : 0,
      0);

  auto applySite = [](InjectSite& s, std::uint64_t& w, std::uint64_t cur) {
    // cur = raw site value restricted to s.mask.
    std::uint64_t presented = 0;
    switch (s.kind) {
      case FaultKind::kSa0:
        presented = 0;
        break;
      case FaultKind::kSa1:
        presented = s.mask;
        break;
      case FaultKind::kSlowRise:
        presented = cur & s.prev;
        break;
      case FaultKind::kSlowFall:
        presented = cur | s.prev;
        break;
    }
    s.prev = cur;
    w = (w & ~s.mask) | presented;
  };

  for (int cycle = 0; cycle < cycles; ++cycle) {
    // Drive stimulus (broadcast to all machines).
    const std::uint64_t in = ctx.stimulus[static_cast<std::size_t>(cycle)];
    for (std::size_t j = 0; j < pis.size(); ++j) {
      val[pis[j]] = broadcast(((in >> j) & 1u) != 0);
    }
    // Source-net injections (PI and flip-flop output stems).
    for (InjectSite& s : source_sites) {
      applySite(s, val[s.net], val[s.net] & s.mask);
    }

    // Evaluate combinational logic, injecting each gate site once its level
    // is complete.
    std::size_t ev = 0;
    const std::size_t nev = gate_sites.size();
    ctx.prog->eval(val, [&](int level) {
      for (; ev < nev && gate_sites[ev].level == level; ++ev) {
        InjectSite& s = gate_sites[ev];
        if (s.branch_gate == Fault::kNoGate) {
          applySite(s, val[s.net], val[s.net] & s.mask);
          continue;
        }
        // Branch fault: recompute the consuming gate's output for this
        // machine with the pin view patched.
        const Gate& bg = gates[s.branch_gate];
        std::uint64_t iv[3] = {0, 0, 0};
        for (int p = 0; p < bg.nin; ++p) {
          iv[p] = val[bg.in[static_cast<std::size_t>(p)]];
        }
        applySite(s, iv[s.branch_pin], iv[s.branch_pin] & s.mask);
        const std::uint64_t out = evalGateWord(bg.type, iv[0], iv[1], iv[2]);
        val[bg.out] = (val[bg.out] & ~s.mask) | (out & s.mask);
      }
    });

    // Observe outputs.
    std::uint64_t cycle_diff = 0;
    for (const NetId po : ctx.observe) {
      const std::uint64_t w = val[po];
      cycle_diff |= w ^ goodLane(w);
    }
    cycle_diff &= group_mask;
    std::uint64_t newly = cycle_diff & ~detected_word;
    detected_word |= cycle_diff;
    while (newly != 0) {
      const int bit = std::countr_zero(newly);
      newly &= newly - 1;
      result.first_detect[members[static_cast<std::size_t>(bit - 1)]] = cycle;
    }
    if (want_windows && cycle_diff != 0) {
      const int w =
          static_cast<int>((static_cast<std::int64_t>(cycle) * opts.windows) /
                           cycles);
      std::uint64_t d = cycle_diff;
      while (d != 0) {
        const int bit = std::countr_zero(d);
        d &= d - 1;
        window_masks[static_cast<std::size_t>(bit - 1)] |=
            std::uint64_t{1} << w;
      }
    }

    // MISR compaction (bit-sliced across machines).
    if (want_misr) {
      const MisrSpec& m = *opts.misr;
      auto& s = scratch.misr;
      const std::uint64_t msb = s[static_cast<std::size_t>(misr_w - 1)];
      for (int j = misr_w - 1; j >= 0; --j) {
        std::uint64_t feed = 0;
        for (const NetId n : m.feeds[static_cast<std::size_t>(j)]) {
          feed ^= val[n];
        }
        const std::uint64_t shifted =
            j > 0 ? s[static_cast<std::size_t>(j - 1)] : 0;
        const std::uint64_t fb = ((m.poly >> j) & 1u) != 0 ? msb : 0;
        s[static_cast<std::size_t>(j)] = shifted ^ fb ^ feed;
      }
    }

    // Window-boundary MISR read-out (signature syndrome capture).
    if (want_sigs) {
      const int w_now = static_cast<int>(
          (static_cast<std::int64_t>(cycle) * opts.windows) / cycles);
      const int w_next = static_cast<int>(
          (static_cast<std::int64_t>(cycle + 1) * opts.windows) / cycles);
      if (w_next > w_now || cycle + 1 == cycles) {
        for (int j = 0; j < misr_w; ++j) {
          const std::uint64_t taps = scratch.misr[static_cast<std::size_t>(j)];
          const std::uint64_t diff = taps ^ goodLane(taps);
          if (diff == 0) continue;
          const int bitpos = w_now * misr_w + j;
          for (std::size_t i = 0; i < members.size(); ++i) {
            if ((diff >> (i + 1)) & 1u) {
              window_sigs[i * static_cast<std::size_t>(sig_words) +
                          static_cast<std::size_t>(bitpos / 64)] |=
                  std::uint64_t{1} << (bitpos % 64);
            }
          }
        }
      }
    }

    // Early exit: everything in the group already detected and no one needs
    // the full-length run.
    if (opts.drop_detected && !want_windows && !want_misr &&
        detected_word == group_mask) {
      break;
    }

    // Clock edge.
    auto& dcapt = scratch.dcapt;
    for (std::size_t i = 0; i < dffs.size(); ++i) dcapt[i] = val[dffs[i].d];
    for (std::size_t i = 0; i < dffs.size(); ++i) val[dffs[i].q] = dcapt[i];
  }

  // Fold group results back (first_detect was written at detection time).
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (want_windows) result.window_mask[members[i]] = window_masks[i];
    if (want_sigs) {
      for (int w = 0; w < sig_words; ++w) {
        result.window_sig[members[i] * static_cast<std::size_t>(sig_words) +
                          static_cast<std::size_t>(w)] =
            window_sigs[i * static_cast<std::size_t>(sig_words) +
                        static_cast<std::size_t>(w)];
      }
    }
    if (want_misr) {
      bool diff = false;
      for (int j = 0; j < misr_w; ++j) {
        const std::uint64_t w = scratch.misr[static_cast<std::size_t>(j)];
        if (((w >> (i + 1)) & 1u) != (w & 1u)) {
          diff = true;
          break;
        }
      }
      result.misr_detect[members[i]] = diff ? 1 : 0;
    }
  }
}

}  // namespace

SeqFsimResult SeqFaultSim::run(std::span<const Fault> faults,
                               std::span<const std::uint64_t> stimulus,
                               const SeqFsimOptions& opts) const {
  if (static_cast<int>(stimulus.size()) < opts.cycles) {
    throw std::invalid_argument("SeqFaultSim: stimulus shorter than cycles");
  }
  checkWindows(opts);
  RunContext ctx;
  ctx.nl = &nl_;
  ctx.prog = prog_.get();
  ctx.stimulus = stimulus;
  ctx.observe =
      opts.observe.empty() ? nl_.primaryOutputs() : opts.observe;

  SeqFsimResult result;
  result.total = faults.size();
  result.first_detect.assign(faults.size(), -1);
  if (opts.windows > 0) result.window_mask.assign(faults.size(), 0);
  if (opts.misr) result.misr_detect.assign(faults.size(), 0);
  if (opts.windows > 0 && opts.misr) {
    result.sig_words_per_fault = (opts.windows * opts.misr->width + 63) / 64;
    result.window_sig.assign(
        faults.size() * static_cast<std::size_t>(result.sig_words_per_fault),
        0);
  }

  const bool full_length = opts.windows > 0 || opts.misr.has_value();

  // A pass grades groups of 63 faulty machines one after another on the
  // calling thread (sharding across threads or processes is the
  // orchestrators' job); passes differ only in their cycle count.
  SeqFsimOptions pass_opts = opts;
  ctx.opts = &pass_opts;
  GroupScratch scratch;
  scratch.val.assign(nl_.numNets(), 0);
  scratch.dcapt.assign(nl_.dffs().size(), 0);
  auto runPass = [&](std::span<const std::uint32_t> indices, int cycles) {
    pass_opts.cycles = cycles;
    for (std::size_t at = 0; at < indices.size(); at += 63) {
      simulateGroup(ctx, faults,
                    indices.subspan(at, std::min<std::size_t>(
                                            63, indices.size() - at)),
                    scratch, result);
    }
  };

  std::vector<std::uint32_t> all(faults.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = static_cast<std::uint32_t>(i);

  if (!full_length && opts.prepass_cycles > 0 &&
      opts.prepass_cycles < opts.cycles && opts.drop_detected) {
    // Geometric prepass ladder: each stage re-groups the survivors densely,
    // so the expensive full-length pass only sees the hard tail.
    std::vector<int> stages;
    for (int c = opts.prepass_cycles; c < opts.cycles; c *= 4) {
      stages.push_back(c);
    }
    stages.push_back(opts.cycles);
    std::vector<std::uint32_t> live = std::move(all);
    for (const int cycles : stages) {
      runPass(live, cycles);
      std::vector<std::uint32_t> survivors;
      for (const std::uint32_t i : live) {
        if (result.first_detect[i] < 0) survivors.push_back(i);
      }
      live = std::move(survivors);
      if (live.empty()) break;
    }
  } else {
    runPass(all, opts.cycles);
  }

  result.detected = 0;
  for (const auto fd : result.first_detect) {
    if (fd >= 0) ++result.detected;
  }
  result.patterns_applied = static_cast<std::size_t>(opts.cycles);
  // Sequential machines latch only the first divergence; dictionary
  // consumers get a one-entry list per detected fault.
  if (opts.record_detections > 0) {
    result.detect_patterns.assign(faults.size(), {});
    for (std::size_t i = 0; i < faults.size(); ++i) {
      if (result.first_detect[i] >= 0) {
        result.detect_patterns[i].push_back(
            static_cast<std::uint32_t>(result.first_detect[i]));
      }
    }
  }
  return result;
}

FaultSimResult SeqFaultSim::run(std::span<const Fault> faults,
                                const PatternSource& patterns,
                                const FaultSimOptions& opts) {
  if (opts.launch != nullptr) {
    throw std::invalid_argument(
        "SeqFaultSim: launch/capture pair campaigns are a combinational "
        "(full-scan) notion; sequential stimulus launches transitions "
        "between consecutive cycles");
  }
  FaultSimOptions o = opts;
  o.cycles = opts.cycles > 0 ? opts.cycles : patterns.patternCount();
  o.stall_blocks = 0;  // stall exits are a combinational-campaign notion

  const auto packed = patterns.packedWords();
  if (!packed.empty()) {
    return run(faults, packed, o);
  }
  if (patterns.width() > 64) {
    throw std::invalid_argument(
        "SeqFaultSim: pattern source wider than 64 inputs; pack the "
        "stimulus differently");
  }
  if (o.cycles > patterns.patternCount()) {
    throw std::invalid_argument("SeqFaultSim: stimulus shorter than cycles");
  }
  // Transpose PPSFP blocks into the per-cycle word stream the fault-parallel
  // kernel broadcasts.
  std::vector<std::uint64_t> words(static_cast<std::size_t>(o.cycles), 0);
  PatternBlock block;
  for (int start = 0; start < o.cycles; start += 64) {
    patterns.fill(start, block);
    const int n = std::min(block.clampedCount(), o.cycles - start);
    for (int k = 0; k < n; ++k) {
      std::uint64_t w = 0;
      for (std::size_t j = 0; j < block.inputs.size(); ++j) {
        w |= ((block.inputs[j] >> k) & 1u) << j;
      }
      words[static_cast<std::size_t>(start + k)] = w;
    }
  }
  return run(faults, words, o);
}

std::unique_ptr<FaultSim> SeqFaultSim::clone() const {
  return std::make_unique<SeqFaultSim>(*this);
}

std::uint64_t SeqFaultSim::goodSignature(
    std::span<const std::uint64_t> stimulus, int cycles,
    const MisrSpec& misr) const {
  std::vector<std::uint64_t> val(nl_.numNets(), 0);
  const auto& dffs = nl_.dffs();
  const auto& pis = nl_.primaryInputs();
  std::vector<std::uint64_t> state(static_cast<std::size_t>(misr.width), 0);
  std::vector<std::uint64_t> dcapt(dffs.size(), 0);
  for (int cycle = 0; cycle < cycles; ++cycle) {
    const std::uint64_t in = stimulus[static_cast<std::size_t>(cycle)];
    for (std::size_t j = 0; j < pis.size(); ++j) {
      val[pis[j]] = broadcast(((in >> j) & 1u) != 0);
    }
    prog_->eval(val);
    const std::uint64_t msb = state[static_cast<std::size_t>(misr.width - 1)];
    for (int j = misr.width - 1; j >= 0; --j) {
      std::uint64_t feed = 0;
      for (const NetId n : misr.feeds[static_cast<std::size_t>(j)]) {
        feed ^= val[n];
      }
      const std::uint64_t shifted =
          j > 0 ? state[static_cast<std::size_t>(j - 1)] : 0;
      const std::uint64_t fb = ((misr.poly >> j) & 1u) != 0 ? msb : 0;
      state[static_cast<std::size_t>(j)] = shifted ^ fb ^ feed;
    }
    for (std::size_t i = 0; i < dffs.size(); ++i) dcapt[i] = val[dffs[i].d];
    for (std::size_t i = 0; i < dffs.size(); ++i) val[dffs[i].q] = dcapt[i];
  }
  // Collapse lane 0 into a bit-per-tap signature word.
  std::uint64_t sig = 0;
  for (int j = 0; j < misr.width; ++j) {
    sig |= (state[static_cast<std::size_t>(j)] & 1u) << j;
  }
  return sig;
}

}  // namespace corebist
