#include "analyze/collapse.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_map>

namespace corebist {

namespace {

class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a != b) parent_[std::max(a, b)] = std::min(a, b);
  }

 private:
  std::vector<std::size_t> parent_;
};

struct SiteKey {
  NetId net;
  GateId gate;
  std::uint8_t pin;
  FaultKind kind;
  bool operator==(const SiteKey&) const = default;
};

struct SiteKeyHash {
  std::size_t operator()(const SiteKey& k) const noexcept {
    std::size_t h = k.net;
    h = h * 1000003u ^ k.gate;
    h = h * 1000003u ^ k.pin;
    h = h * 1000003u ^ static_cast<std::size_t>(k.kind);
    return h;
  }
};

constexpr std::size_t kNoFault = static_cast<std::size_t>(-1);

}  // namespace

CollapseResult collapseStuckAt(const Netlist& nl,
                               std::span<const NetId> observed) {
  CollapseResult r;
  const FaultUniverse u = enumerateStuckAt(nl, /*collapse=*/false);
  r.universe = u.faults;

  std::unordered_map<SiteKey, std::size_t, SiteKeyHash> index;
  index.reserve(r.universe.size());
  for (std::size_t i = 0; i < r.universe.size(); ++i) {
    const Fault& f = r.universe[i];
    index.emplace(SiteKey{f.net, f.gate, f.pin, f.kind}, i);
  }
  const auto lookup = [&index](NetId n, GateId g, std::uint8_t pin,
                               FaultKind k) {
    const auto it = index.find(SiteKey{n, g, pin, k});
    return it == index.end() ? kNoFault : it->second;
  };

  // Nets with observation paths the reader CSR does not count: merging a
  // stem fault *across* such a net changes detection outcomes.
  std::vector<char> visible(nl.numNets(), 0);
  if (observed.empty()) {
    for (const NetId n : nl.primaryOutputs()) visible[n] = 1;
  } else {
    for (const NetId n : observed) {
      if (n < nl.numNets()) visible[n] = 1;
    }
  }
  for (const Dff& ff : nl.dffs()) {
    if (ff.d != kNullNet) visible[ff.d] = 1;
  }

  const ReaderCsr& readers = nl.readerCsr();
  UnionFind uf(r.universe.size());

  // The collapsible fault at gate input pin `p`: the branch when the net
  // has gate fanout > 1, the stem otherwise — but the stem only when the
  // net is not visible elsewhere.
  const auto inputSite = [&](const Gate& gate, GateId g, std::uint8_t p,
                             FaultKind k) {
    const NetId in = gate.in[p];
    if (readers.countOf(in) > 1) return lookup(in, g, p, k);
    if (visible[in] != 0) return kNoFault;
    return lookup(in, Fault::kNoGate, 0, k);
  };
  const auto unite = [&uf](std::size_t a, std::size_t b) {
    if (a != kNoFault && b != kNoFault) uf.unite(a, b);
  };

  for (GateId g = 0; g < nl.numGates(); ++g) {
    const Gate& gate = nl.gates()[g];
    if (gate.nin == 0) continue;
    const auto out_sa0 = lookup(gate.out, Fault::kNoGate, 0, FaultKind::kSa0);
    const auto out_sa1 = lookup(gate.out, Fault::kNoGate, 0, FaultKind::kSa1);
    if (out_sa0 == kNoFault || out_sa1 == kNoFault) continue;  // const net
    switch (gate.type) {
      case GateType::kBuf:
        unite(out_sa0, inputSite(gate, g, 0, FaultKind::kSa0));
        unite(out_sa1, inputSite(gate, g, 0, FaultKind::kSa1));
        break;
      case GateType::kNot:
        unite(out_sa0, inputSite(gate, g, 0, FaultKind::kSa1));
        unite(out_sa1, inputSite(gate, g, 0, FaultKind::kSa0));
        break;
      case GateType::kAnd:
        for (std::uint8_t p = 0; p < 2; ++p) {
          unite(out_sa0, inputSite(gate, g, p, FaultKind::kSa0));
        }
        break;
      case GateType::kNand:
        for (std::uint8_t p = 0; p < 2; ++p) {
          unite(out_sa1, inputSite(gate, g, p, FaultKind::kSa0));
        }
        break;
      case GateType::kOr:
        for (std::uint8_t p = 0; p < 2; ++p) {
          unite(out_sa1, inputSite(gate, g, p, FaultKind::kSa1));
        }
        break;
      case GateType::kNor:
        for (std::uint8_t p = 0; p < 2; ++p) {
          unite(out_sa0, inputSite(gate, g, p, FaultKind::kSa1));
        }
        break;
      default:
        break;  // XOR/XNOR/MUX2: no intra-gate equivalences
    }
  }

  // Materialize classes: representative = lowest universe index (the unite
  // above always parents toward the minimum).
  std::vector<std::size_t> root_class(r.universe.size(), kNoFault);
  r.class_of.assign(r.universe.size(), 0);
  for (std::size_t i = 0; i < r.universe.size(); ++i) {
    const std::size_t root = uf.find(i);
    if (root_class[root] == kNoFault) {
      root_class[root] = r.classes.size();
      r.classes.emplace_back();
      r.representatives.push_back(r.universe[root]);
    }
    r.class_of[i] = root_class[root];
    r.classes[root_class[root]].push_back(i);
  }
  return r;
}

std::vector<std::int32_t> expandFirstDetect(
    const CollapseResult& c, std::span<const std::int32_t> rep_first_detect) {
  std::vector<std::int32_t> out(c.universe.size(), -1);
  for (std::size_t i = 0; i < c.universe.size(); ++i) {
    out[i] = rep_first_detect[c.class_of[i]];
  }
  return out;
}

std::vector<std::size_t> proveEquivalenceOnStimulus(
    FaultSim& sim, const CollapseResult& c, const PatternSource& patterns,
    const FaultSimOptions& opts) {
  const FaultSimResult full = sim.run(c.universe, patterns, opts);
  std::vector<std::size_t> offending;
  for (std::size_t cls = 0; cls < c.classes.size(); ++cls) {
    const std::int32_t want = full.first_detect[c.classes[cls].front()];
    for (const std::size_t member : c.classes[cls]) {
      if (full.first_detect[member] != want) {
        offending.push_back(cls);
        break;
      }
    }
  }
  return offending;
}

}  // namespace corebist
