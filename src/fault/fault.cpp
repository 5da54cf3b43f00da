#include "fault/fault.hpp"

#include <numeric>
#include <stdexcept>
#include <unordered_map>

namespace corebist {

namespace {

/// Disjoint-set forest over fault indices for equivalence collapsing.
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
    if (a != b) parent_[b] = a;
  }

 private:
  std::vector<std::size_t> parent_;
};

/// Key for locating the index of an enumerated fault.
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

}  // namespace

std::string describeFault(const Netlist& nl, const Fault& f) {
  std::string s = nl.netName(f.net);
  if (!f.isStem()) {
    s += "@g" + std::to_string(f.gate) + "." + std::to_string(f.pin);
  }
  switch (f.kind) {
    case FaultKind::kSa0:
      s += " s-a-0";
      break;
    case FaultKind::kSa1:
      s += " s-a-1";
      break;
    case FaultKind::kSlowRise:
      s += " slow-rise";
      break;
    case FaultKind::kSlowFall:
      s += " slow-fall";
      break;
  }
  return s;
}

FaultUniverse enumerateStuckAt(const Netlist& nl, bool collapse) {
  FaultUniverse u;
  const ReaderCsr& readers = nl.readerCsr();

  // Nets fed by constant tie cells carry no testable stuck-at faults.
  std::vector<char> is_const_net(nl.numNets(), 0);
  for (const Gate& g : nl.gates()) {
    if (g.type == GateType::kConst0 || g.type == GateType::kConst1) {
      is_const_net[g.out] = 1;
    }
  }

  std::vector<Fault> all;
  std::unordered_map<SiteKey, std::size_t, SiteKeyHash> index;
  auto push = [&all, &index](NetId n, GateId g, std::uint8_t pin,
                             FaultKind k) {
    const SiteKey key{n, g, pin, k};
    const auto [it, inserted] = index.emplace(key, all.size());
    if (inserted) all.push_back(Fault{n, g, pin, k});
    return it->second;
  };

  // Stems on every non-constant net.
  for (NetId n = 0; n < nl.numNets(); ++n) {
    if (is_const_net[n]) continue;
    push(n, Fault::kNoGate, 0, FaultKind::kSa0);
    push(n, Fault::kNoGate, 0, FaultKind::kSa1);
  }
  // Branches on fanout > 1 pins.
  for (GateId g = 0; g < nl.numGates(); ++g) {
    const Gate& gate = nl.gates()[g];
    for (std::uint8_t p = 0; p < gate.nin; ++p) {
      const NetId in = gate.in[p];
      if (is_const_net[in]) continue;
      if (readers.countOf(in) > 1) {
        push(in, g, p, FaultKind::kSa0);
        push(in, g, p, FaultKind::kSa1);
      }
    }
  }

  u.uncollapsed = all.size();
  if (!collapse) {
    u.faults = std::move(all);
    return u;
  }

  UnionFind uf(all.size());
  auto inputSite = [&readers, &push](const Gate& gate, GateId g,
                                     std::uint8_t pin, FaultKind k) {
    const NetId in = gate.in[pin];
    // The collapsible input fault is the branch when fanout > 1, else the
    // stem of the input net.
    if (readers.countOf(in) > 1) return push(in, g, pin, k);
    return push(in, Fault::kNoGate, 0, k);
  };

  for (GateId g = 0; g < nl.numGates(); ++g) {
    const Gate& gate = nl.gates()[g];
    if (gate.nin == 0) continue;
    if (is_const_net[gate.in[0]]) continue;
    const auto outSa0 = push(gate.out, Fault::kNoGate, 0, FaultKind::kSa0);
    const auto outSa1 = push(gate.out, Fault::kNoGate, 0, FaultKind::kSa1);
    switch (gate.type) {
      case GateType::kBuf:
        uf.unite(outSa0, inputSite(gate, g, 0, FaultKind::kSa0));
        uf.unite(outSa1, inputSite(gate, g, 0, FaultKind::kSa1));
        break;
      case GateType::kNot:
        uf.unite(outSa0, inputSite(gate, g, 0, FaultKind::kSa1));
        uf.unite(outSa1, inputSite(gate, g, 0, FaultKind::kSa0));
        break;
      case GateType::kAnd:
        for (std::uint8_t p = 0; p < 2; ++p) {
          if (is_const_net[gate.in[p]]) continue;
          uf.unite(outSa0, inputSite(gate, g, p, FaultKind::kSa0));
        }
        break;
      case GateType::kNand:
        for (std::uint8_t p = 0; p < 2; ++p) {
          if (is_const_net[gate.in[p]]) continue;
          uf.unite(outSa1, inputSite(gate, g, p, FaultKind::kSa0));
        }
        break;
      case GateType::kOr:
        for (std::uint8_t p = 0; p < 2; ++p) {
          if (is_const_net[gate.in[p]]) continue;
          uf.unite(outSa1, inputSite(gate, g, p, FaultKind::kSa1));
        }
        break;
      case GateType::kNor:
        for (std::uint8_t p = 0; p < 2; ++p) {
          if (is_const_net[gate.in[p]]) continue;
          uf.unite(outSa0, inputSite(gate, g, p, FaultKind::kSa1));
        }
        break;
      default:
        break;  // XOR/XNOR/MUX2 have no intra-gate equivalences
    }
  }

  std::vector<char> keep(all.size(), 0);
  for (std::size_t i = 0; i < all.size(); ++i) keep[uf.find(i)] = 1;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (keep[i]) u.faults.push_back(all[i]);
  }
  u.collapsed_away = all.size() - u.faults.size();
  return u;
}

std::vector<Fault> toTransitionFaults(const std::vector<Fault>& stuck) {
  std::vector<Fault> out;
  out.reserve(stuck.size());
  for (const Fault& f : stuck) {
    Fault t = f;
    t.kind = (f.kind == FaultKind::kSa0) ? FaultKind::kSlowRise
                                         : FaultKind::kSlowFall;
    out.push_back(t);
  }
  return out;
}

void checkFaultKinds(std::span<const Fault> faults, const char* engine) {
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (faults[i].kind > FaultKind::kSlowFall) {
      throw std::invalid_argument(
          std::string(engine) + ": fault " + std::to_string(i) +
          " has unknown kind " +
          std::to_string(static_cast<int>(faults[i].kind)));
    }
  }
}

}  // namespace corebist
