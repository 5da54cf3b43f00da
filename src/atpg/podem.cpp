#include "atpg/podem.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "netlist/levelize.hpp"

namespace corebist {

namespace {

/// 3-valued gate evaluation.
Tv tvEval(GateType t, Tv a, Tv b, Tv s) {
  auto is01 = [](Tv v) { return v != Tv::kX; };
  auto band = [&](Tv x, Tv y) {
    if (x == Tv::k0 || y == Tv::k0) return Tv::k0;
    if (x == Tv::k1 && y == Tv::k1) return Tv::k1;
    return Tv::kX;
  };
  auto bor = [&](Tv x, Tv y) {
    if (x == Tv::k1 || y == Tv::k1) return Tv::k1;
    if (x == Tv::k0 && y == Tv::k0) return Tv::k0;
    return Tv::kX;
  };
  auto bnot = [&](Tv x) {
    if (x == Tv::kX) return Tv::kX;
    return x == Tv::k0 ? Tv::k1 : Tv::k0;
  };
  switch (t) {
    case GateType::kConst0:
      return Tv::k0;
    case GateType::kConst1:
      return Tv::k1;
    case GateType::kBuf:
      return a;
    case GateType::kNot:
      return bnot(a);
    case GateType::kAnd:
      return band(a, b);
    case GateType::kNand:
      return bnot(band(a, b));
    case GateType::kOr:
      return bor(a, b);
    case GateType::kNor:
      return bnot(bor(a, b));
    case GateType::kXor:
      return (is01(a) && is01(b)) ? (a == b ? Tv::k0 : Tv::k1) : Tv::kX;
    case GateType::kXnor:
      return (is01(a) && is01(b)) ? (a == b ? Tv::k1 : Tv::k0) : Tv::kX;
    case GateType::kMux2:
      if (s == Tv::k0) return a;
      if (s == Tv::k1) return b;
      // sel unknown: output known only if both data agree.
      return (is01(a) && a == b) ? a : Tv::kX;
  }
  return Tv::kX;
}

/// Controlling value of a gate's inputs, if any.
std::optional<Tv> controllingValue(GateType t) {
  switch (t) {
    case GateType::kAnd:
    case GateType::kNand:
      return Tv::k0;
    case GateType::kOr:
    case GateType::kNor:
      return Tv::k1;
    default:
      return std::nullopt;
  }
}

/// Does the gate invert (for backtrace parity)?
bool inverts(GateType t) {
  return t == GateType::kNot || t == GateType::kNand || t == GateType::kNor ||
         t == GateType::kXnor;
}

}  // namespace

Podem::Podem(const Netlist& nl, std::span<const NetId> inputs,
             std::span<const NetId> observed, int backtrack_limit)
    : nl_(nl),
      readers_(nl.readerCsr()),
      inputs_(inputs.begin(), inputs.end()),
      input_of_net_(nl.numNets(), -1),
      observed_((nl.numNets() + 63) / 64, 0),
      backtrack_limit_(backtrack_limit),
      gval_(nl.numNets(), Tv::kX),
      fval_(nl.numNets(), Tv::kX),
      divergent_(observed_.size(), 0),
      queued_(nl.numGates(), 0) {
  for (const NetId n : observed) {
    observed_[n >> 6] |= std::uint64_t{1} << (n & 63);
  }
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    input_of_net_[inputs_[i]] = static_cast<int>(i);
  }
  Levelization lev = levelize(nl);
  level_ = std::move(lev.level);
  buckets_.resize(static_cast<std::size_t>(lev.depth) + 1);
  min_level_ = static_cast<int>(buckets_.size());
  // The one full pass: every gate once, fault-free, every input X.
  for (GateId g = 0; g < nl.numGates(); ++g) enqueue(g);
  imply();
  all_x_ = gval_;
}

void Podem::assign(int i, Tv v) {
  assignment_[static_cast<std::size_t>(i)] = v;
  const NetId n = inputs_[static_cast<std::size_t>(i)];
  write(n, v, n == stem_net_ ? forced_ : v);
}

void Podem::write(NetId n, Tv good, Tv faulty) {
  if (gval_[n] == good && fval_[n] == faulty) return;
  gval_[n] = good;
  fval_[n] = faulty;
  const std::uint64_t bit = std::uint64_t{1} << (n & 63);
  if (good != Tv::kX && faulty != Tv::kX && good != faulty) {
    divergent_[n >> 6] |= bit;
  } else {
    divergent_[n >> 6] &= ~bit;
  }
  for (const NetReader& r : readers_.of(n)) enqueue(r.gate);
}

void Podem::enqueue(GateId g) {
  if (queued_[g] != 0) return;
  queued_[g] = 1;
  ++pending_;
  const int lvl = level_[g];
  buckets_[static_cast<std::size_t>(lvl)].push_back(g);
  min_level_ = std::min(min_level_, lvl);
}

void Podem::evaluate(GateId g) {
  const Gate& gate = nl_.gates()[g];
  Tv gin[3] = {Tv::kX, Tv::kX, Tv::kX};
  Tv fin[3] = {Tv::kX, Tv::kX, Tv::kX};
  bool same = true;
  for (int p = 0; p < gate.nin; ++p) {
    const NetId n = gate.in[static_cast<std::size_t>(p)];
    gin[p] = gval_[n];
    fin[p] = fval_[n];
    same = same && gin[p] == fin[p];
  }
  if (g == fault_.gate && fault_.pin < 3) {
    fin[fault_.pin] = forced_;
    same = false;
  }
  const Tv good = tvEval(gate.type, gin[0], gin[1], gin[2]);
  Tv faulty = same ? good : tvEval(gate.type, fin[0], fin[1], fin[2]);
  if (gate.out == stem_net_) faulty = forced_;
  write(gate.out, good, faulty);
}

void Podem::imply() {
  // Readers sit on strictly higher levels than their drivers, so one sweep
  // upward evaluates every queued gate after all of its inputs settled.
  for (auto lvl = static_cast<std::size_t>(min_level_); pending_ > 0; ++lvl) {
    auto& bucket = buckets_[lvl];
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      queued_[bucket[i]] = 0;
      evaluate(bucket[i]);
    }
    pending_ -= bucket.size();
    bucket.clear();
  }
  min_level_ = static_cast<int>(buckets_.size());
}

NetId Podem::nextDivergent(NetId from) const {
  std::size_t w = from >> 6;
  if (w >= divergent_.size()) return kNullNet;
  std::uint64_t bits = divergent_[w] & (~std::uint64_t{0} << (from & 63));
  while (bits == 0) {
    if (++w == divergent_.size()) return kNullNet;
    bits = divergent_[w];
  }
  return static_cast<NetId>(64 * w + std::countr_zero(bits));
}

bool Podem::faultDetectedAtOutput() const {
  for (std::size_t w = 0; w < divergent_.size(); ++w) {
    if ((divergent_[w] & observed_[w]) != 0) return true;
  }
  return false;
}

bool Podem::pickObjective(NetId& net, Tv& val) const {
  // 1) Activate the fault.
  const Tv site_g = gval_[fault_.net];
  if (site_g == Tv::kX) {
    net = fault_.net;
    val = forced_ == Tv::k1 ? Tv::k0 : Tv::k1;
    return true;
  }
  if (site_g == forced_) return false;  // activation impossible now

  // 2) Advance the D-frontier: find a gate with a divergent input and an
  // unknown output; ask for a non-controlling value on an X input.
  //
  // Unguided, the first frontier candidate in net order wins. With SCOAP
  // installed the whole frontier is scanned and the candidate behind the
  // most observable gate output (min CO) wins, hardest side input (max CC)
  // first — fail fast on the side conditions before investing in the rest.
  const auto& gates = nl_.gates();
  bool found = false;
  std::uint32_t best_co = 0;
  std::uint32_t best_cc = 0;
  for (NetId n = nextDivergent(0); n != kNullNet; n = nextDivergent(n + 1)) {
    for (const NetReader& r : readers_.of(n)) {
      const Gate& gate = gates[r.gate];
      if (divergent(gate.out)) continue;  // already propagated through here
      // Find an X input to justify.
      for (int p = 0; p < gate.nin; ++p) {
        const NetId in = gate.in[static_cast<std::size_t>(p)];
        if (in == n) continue;
        if (gval_[in] != Tv::kX) continue;
        const auto cv = controllingValue(gate.type);
        Tv want = Tv::k1;
        if (cv.has_value()) {
          want = (*cv == Tv::k0) ? Tv::k1 : Tv::k0;  // non-controlling
        } else if (gate.type == GateType::kMux2 && p == 2) {
          // Select the divergent data input.
          want = (gate.in[0] == n) ? Tv::k0 : Tv::k1;
        } else {
          want = Tv::k0;  // XOR-family: any binary value sensitizes
        }
        if (scoap_ == nullptr) {
          net = in;
          val = want;
          return true;
        }
        const std::uint32_t co = scoap_->co[gate.out];
        const std::uint32_t cc = scoap_->cc(in, want == Tv::k1);
        if (!found || co < best_co || (co == best_co && cc > best_cc)) {
          found = true;
          best_co = co;
          best_cc = cc;
          net = in;
          val = want;
        }
      }
    }
  }
  return found;
}

bool Podem::backtrace(NetId obj_net, Tv obj_val, int& input_index,
                      Tv& value) const {
  NetId n = obj_net;
  Tv v = obj_val;
  const auto& gates = nl_.gates();
  for (int guard = 0; guard < 100000; ++guard) {
    if (input_of_net_[n] >= 0) {
      if (assignment_[static_cast<std::size_t>(input_of_net_[n])] != Tv::kX) {
        return false;  // objective collides with an assigned input
      }
      input_index = input_of_net_[n];
      value = v;
      return true;
    }
    const GateId d = nl_.driverOf(n);
    if (d == Netlist::kNoDriver) return false;  // state net outside the view
    const Gate& gate = gates[d];
    if (gate.nin == 0) return false;  // constant
    // Collect the X inputs; unguided takes the first, SCOAP reorders.
    int xpins[3];
    int nx = 0;
    for (int p = 0; p < gate.nin; ++p) {
      if (gval_[gate.in[static_cast<std::size_t>(p)]] == Tv::kX) xpins[nx++] = p;
    }
    if (nx == 0) return false;
    int pick = xpins[0];
    const auto ccOf = [&](int p, Tv val) {
      return scoap_->cc(gate.in[static_cast<std::size_t>(p)], val == Tv::k1);
    };
    if (gate.type == GateType::kMux2) {
      // Steer: value heuristic keeps v for data pins, 0 for select. Guided,
      // take the cheapest pin to justify.
      if (scoap_ != nullptr) {
        for (int i = 1; i < nx; ++i) {
          const Tv cand_v = (xpins[i] == 2) ? Tv::k0 : v;
          const Tv pick_v = (pick == 2) ? Tv::k0 : v;
          if (ccOf(xpins[i], cand_v) < ccOf(pick, pick_v)) pick = xpins[i];
        }
      }
      n = gate.in[static_cast<std::size_t>(pick)];
      v = (pick == 2) ? Tv::k0 : v;
      continue;
    }
    if (gate.type == GateType::kXor || gate.type == GateType::kXnor) {
      // Parity gates: pin and value are both free choices. Guided, take the
      // pin whose cheaper polarity is cheapest, at that polarity.
      Tv free_v = Tv::k0;
      if (scoap_ != nullptr) {
        const auto minCc = [&](int p) {
          return std::min(ccOf(p, Tv::k0), ccOf(p, Tv::k1));
        };
        for (int i = 1; i < nx; ++i) {
          if (minCc(xpins[i]) < minCc(pick)) pick = xpins[i];
        }
        free_v = ccOf(pick, Tv::k0) <= ccOf(pick, Tv::k1) ? Tv::k0 : Tv::k1;
      }
      n = gate.in[static_cast<std::size_t>(pick)];
      v = free_v;
      continue;
    }
    // BUF/NOT/AND/NAND/OR/NOR: every input wants the same value (parity
    // adjusted). Guided: when any single input settles the output (the
    // wanted input value is the controlling value), justify the easiest
    // input; when all inputs are needed, the hardest — fail fast.
    const Tv v_in =
        inverts(gate.type) ? (v == Tv::k0 ? Tv::k1 : Tv::k0) : v;
    if (scoap_ != nullptr && nx > 1) {
      const auto cv = controllingValue(gate.type);
      const bool any_suffices = cv.has_value() && v_in == *cv;
      for (int i = 1; i < nx; ++i) {
        const bool better = any_suffices
                                ? ccOf(xpins[i], v_in) < ccOf(pick, v_in)
                                : ccOf(xpins[i], v_in) > ccOf(pick, v_in);
        if (better) pick = xpins[i];
      }
    }
    n = gate.in[static_cast<std::size_t>(pick)];
    v = v_in;
  }
  return false;
}

std::optional<std::vector<Tv>> Podem::generate(const Fault& f) {
  fault_ = f;
  forced_ = f.kind == FaultKind::kSa1 ? Tv::k1 : Tv::k0;
  stem_net_ = f.isStem() ? f.net : kNullNet;
  gval_ = all_x_;
  fval_ = all_x_;
  std::fill(divergent_.begin(), divergent_.end(), 0);
  assignment_.assign(inputs_.size(), Tv::kX);
  backtracks_ = 0;
  aborted_ = false;

  // Inject the fault: force the stem's faulty value, or re-evaluate the gate
  // whose pin is forced.
  if (f.isStem()) {
    write(f.net, gval_[f.net], forced_);
  } else {
    enqueue(f.gate);
  }
  imply();

  std::vector<Decision> stack;
  for (int guard = 0; guard < 200000; ++guard) {
    if (faultDetectedAtOutput()) {
      return assignment_;
    }
    NetId obj_net = kNullNet;
    Tv obj_val = Tv::kX;
    int input_index = -1;
    Tv input_val = Tv::kX;
    const bool have_obj = pickObjective(obj_net, obj_val) &&
                          backtrace(obj_net, obj_val, input_index, input_val);
    if (have_obj) {
      stack.push_back(Decision{input_index, false});
      assign(input_index, input_val);
      imply();
      continue;
    }
    // Dead end: backtrack to the newest decision with an untried value. The
    // verdicts are decided before any input changes, so every return leaves
    // the event queue empty.
    std::size_t keep = stack.size();
    while (keep > 0 && stack[keep - 1].tried_both) --keep;
    if (keep == 0) return std::nullopt;  // untestable
    if (++backtracks_ > static_cast<std::size_t>(backtrack_limit_)) {
      aborted_ = true;
      return std::nullopt;
    }
    for (; stack.size() > keep; stack.pop_back()) {
      assign(stack.back().input_index, Tv::kX);
    }
    Decision& d = stack.back();
    d.tried_both = true;
    const Tv flipped =
        assignment_[static_cast<std::size_t>(d.input_index)] == Tv::k0
            ? Tv::k1
            : Tv::k0;
    assign(d.input_index, flipped);
    imply();
  }
  aborted_ = true;  // iteration guard: search space not exhausted
  return std::nullopt;
}

}  // namespace corebist
