#include "netlist/builder.hpp"

#include <stdexcept>

namespace corebist {

namespace {
void requireSameWidth(const Bus& a, const Bus& b, const char* what) {
  if (a.size() != b.size()) {
    throw std::invalid_argument(std::string(what) + ": width mismatch");
  }
}
bool isPowerOfTwo(std::size_t v) { return v != 0 && (v & (v - 1)) == 0; }
}  // namespace

Bus Builder::input(const std::string& name, int width) {
  Bus b;
  b.reserve(static_cast<std::size_t>(width));
  for (int i = 0; i < width; ++i) {
    const NetId n = nl_.addPrimaryInput();
    nl_.setNetName(n, name + "[" + std::to_string(i) + "]");
    b.push_back(n);
  }
  nl_.registerPort(name, b, /*is_input=*/true);
  return b;
}

void Builder::output(const std::string& name, const Bus& b) {
  for (std::size_t i = 0; i < b.size(); ++i) {
    nl_.markPrimaryOutput(b[i]);
    nl_.setNetName(b[i], name + "[" + std::to_string(i) + "]");
  }
  nl_.registerPort(name, b, /*is_input=*/false);
}

Bus Builder::state(const std::string& name, int width) {
  Bus q;
  q.reserve(static_cast<std::size_t>(width));
  for (int i = 0; i < width; ++i) {
    const NetId n = nl_.addDff();
    nl_.setNetName(n, name + "[" + std::to_string(i) + "]");
    q.push_back(n);
  }
  return q;
}

void Builder::connect(const Bus& q, const Bus& d) {
  requireSameWidth(q, d, "connect");
  for (std::size_t i = 0; i < q.size(); ++i) nl_.connectDff(q[i], d[i]);
}

void Builder::connectEn(const Bus& q, const Bus& d, NetId en) {
  requireSameWidth(q, d, "connectEn");
  for (std::size_t i = 0; i < q.size(); ++i) {
    nl_.connectDff(q[i], mux(q[i], d[i], en));
  }
}

void Builder::connectEnClr(const Bus& q, const Bus& d, NetId en, NetId clear) {
  requireSameWidth(q, d, "connectEnClr");
  const NetId nclr = not1(clear);
  for (std::size_t i = 0; i < q.size(); ++i) {
    nl_.connectDff(q[i], and2(mux(q[i], d[i], en), nclr));
  }
}

NetId Builder::lo() {
  if (lo_ == kNullNet) lo_ = nl_.addGate(GateType::kConst0, {});
  return lo_;
}

NetId Builder::hi() {
  if (hi_ == kNullNet) hi_ = nl_.addGate(GateType::kConst1, {});
  return hi_;
}

Bus Builder::constant(int width, std::uint64_t value) {
  Bus b;
  b.reserve(static_cast<std::size_t>(width));
  for (int i = 0; i < width; ++i) {
    b.push_back(((value >> i) & 1u) != 0 ? hi() : lo());
  }
  return b;
}

Bus Builder::bwNot(const Bus& a) {
  Bus out;
  out.reserve(a.size());
  for (const NetId n : a) out.push_back(not1(n));
  return out;
}

Bus Builder::bw(GateType t, const Bus& a, const Bus& b) {
  requireSameWidth(a, b, "bw");
  Bus out;
  out.reserve(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out.push_back(g2(t, a[i], b[i]));
  return out;
}

Bus Builder::mux(const Bus& a, const Bus& b, NetId sel) {
  requireSameWidth(a, b, "mux");
  Bus out;
  out.reserve(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    out.push_back(mux(a[i], b[i], sel));
  }
  return out;
}

Bus Builder::muxN(std::span<const Bus> inputs, const Bus& sel) {
  if (!isPowerOfTwo(inputs.size())) {
    throw std::invalid_argument("muxN: input count must be a power of two");
  }
  std::vector<Bus> layer(inputs.begin(), inputs.end());
  std::size_t selbit = 0;
  while (layer.size() > 1) {
    if (selbit >= sel.size()) {
      throw std::invalid_argument("muxN: select bus too narrow");
    }
    std::vector<Bus> next;
    next.reserve(layer.size() / 2);
    for (std::size_t i = 0; i + 1 < layer.size(); i += 2) {
      next.push_back(mux(layer[i], layer[i + 1], sel[selbit]));
    }
    layer = std::move(next);
    ++selbit;
  }
  return layer.front();
}

NetId Builder::reduceAnd(const Bus& a) {
  if (a.empty()) return hi();
  Bus cur = a;
  while (cur.size() > 1) {
    Bus next;
    for (std::size_t i = 0; i + 1 < cur.size(); i += 2) {
      next.push_back(and2(cur[i], cur[i + 1]));
    }
    if (cur.size() % 2 != 0) next.push_back(cur.back());
    cur = std::move(next);
  }
  return cur.front();
}

NetId Builder::reduceXor(const Bus& a) {
  if (a.empty()) return lo();
  Bus cur = a;
  while (cur.size() > 1) {
    Bus next;
    for (std::size_t i = 0; i + 1 < cur.size(); i += 2) {
      next.push_back(xor2(cur[i], cur[i + 1]));
    }
    if (cur.size() % 2 != 0) next.push_back(cur.back());
    cur = std::move(next);
  }
  return cur.front();
}

std::pair<Bus, NetId> Builder::addc(const Bus& a, const Bus& b, NetId cin) {
  requireSameWidth(a, b, "addc");
  Bus sum;
  sum.reserve(a.size());
  NetId carry = cin;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const NetId axb = xor2(a[i], b[i]);
    sum.push_back(xor2(axb, carry));
    // carry = (a & b) | (carry & (a ^ b))
    carry = or2(and2(a[i], b[i]), and2(carry, axb));
  }
  return {sum, carry};
}

Bus Builder::add(const Bus& a, const Bus& b) { return addc(a, b, lo()).first; }

Bus Builder::sub(const Bus& a, const Bus& b) {
  return addc(a, bwNot(b), hi()).first;
}

Bus Builder::inc(const Bus& a) {
  Bus sum;
  sum.reserve(a.size());
  NetId carry = hi();
  for (std::size_t i = 0; i < a.size(); ++i) {
    sum.push_back(xor2(a[i], carry));
    carry = and2(a[i], carry);
  }
  return sum;
}

Bus Builder::neg(const Bus& a) { return inc(bwNot(a)); }

Bus Builder::absSigned(const Bus& a) {
  const NetId sign = a.back();
  return mux(a, neg(a), sign);
}

NetId Builder::eq(const Bus& a, const Bus& b) {
  requireSameWidth(a, b, "eq");
  Bus eqs;
  eqs.reserve(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    eqs.push_back(g2(GateType::kXnor, a[i], b[i]));
  }
  return reduceAnd(eqs);
}

NetId Builder::eqConst(const Bus& a, std::uint64_t value) {
  Bus terms;
  terms.reserve(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    terms.push_back(((value >> i) & 1u) != 0 ? a[i] : not1(a[i]));
  }
  return reduceAnd(terms);
}

NetId Builder::ltU(const Bus& a, const Bus& b) {
  requireSameWidth(a, b, "ltU");
  // Logarithmic-depth compare: per bit (lt_i, eq_i), merged MSB-first with
  // lt = lt_hi | (eq_hi & lt_lo), eq = eq_hi & eq_lo.
  struct LE {
    NetId lt;
    NetId eq;
  };
  std::vector<LE> seg;
  seg.reserve(a.size());
  // seg[0] is the most-significant position.
  for (std::size_t i = a.size(); i-- > 0;) {
    seg.push_back(LE{and2(not1(a[i]), b[i]), g2(GateType::kXnor, a[i], b[i])});
  }
  while (seg.size() > 1) {
    std::vector<LE> next;
    for (std::size_t i = 0; i + 1 < seg.size(); i += 2) {
      next.push_back(LE{or2(seg[i].lt, and2(seg[i].eq, seg[i + 1].lt)),
                        and2(seg[i].eq, seg[i + 1].eq)});
    }
    if (seg.size() % 2 != 0) next.push_back(seg.back());
    seg = std::move(next);
  }
  return seg.front().lt;
}

std::pair<Bus, NetId> Builder::minU(const Bus& a, const Bus& b) {
  const NetId altb = ltU(a, b);
  return {mux(b, a, altb), altb};
}

Bus Builder::shiftConst(const Bus& a, int k) {
  const int w = static_cast<int>(a.size());
  Bus out;
  out.reserve(a.size());
  for (int i = 0; i < w; ++i) {
    const int src = i - k;
    out.push_back((src >= 0 && src < w) ? a[static_cast<std::size_t>(src)]
                                        : lo());
  }
  return out;
}

Bus Builder::decode(const Bus& a) {
  const std::size_t n = std::size_t{1} << a.size();
  Bus out;
  out.reserve(n);
  for (std::size_t v = 0; v < n; ++v) out.push_back(eqConst(a, v));
  return out;
}

Bus Builder::counter(const std::string& name, int width, NetId en,
                     NetId clear) {
  const Bus q = state(name, width);
  connectEnClr(q, inc(q), en, clear);
  return q;
}

Bus Builder::slice(const Bus& a, int lo, int len) {
  if (lo < 0 || lo + len > static_cast<int>(a.size())) {
    throw std::invalid_argument("slice: out of range");
  }
  return Bus(a.begin() + lo, a.begin() + lo + len);
}

Bus Builder::concat(std::span<const Bus> parts) {
  Bus out;
  for (const Bus& p : parts) out.insert(out.end(), p.begin(), p.end());
  return out;
}

}  // namespace corebist
