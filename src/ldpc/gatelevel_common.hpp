// Shared structural idioms for the LDPC gate-level generators.
#ifndef COREBIST_LDPC_GATELEVEL_COMMON_HPP_
#define COREBIST_LDPC_GATELEVEL_COMMON_HPP_

#include "netlist/builder.hpp"

namespace corebist::ldpc::gl {

using corebist::Builder;
using corebist::Bus;
using corebist::GateType;
using corebist::NetId;

/// Sign-extend a bus to `width` (replicates the sign net; no gates).
[[nodiscard]] inline Bus sext(const Bus& v, int width) {
  Bus out = v;
  while (static_cast<int>(out.size()) < width) out.push_back(v.back());
  return out;
}

/// Arithmetic shift right by a constant (sign fill; no gates).
[[nodiscard]] inline Bus asr(const Bus& v, int k) {
  Bus out;
  const int w = static_cast<int>(v.size());
  for (int i = 0; i < w; ++i) {
    const int src = i + k;
    out.push_back(src < w ? v[static_cast<std::size_t>(src)] : v.back());
  }
  return out;
}

/// Logical shift right by a constant (zero fill).
[[nodiscard]] inline Bus lsr(Builder& b, const Bus& v, int k) {
  Bus out;
  const int w = static_cast<int>(v.size());
  for (int i = 0; i < w; ++i) {
    const int src = i + k;
    out.push_back(src < w ? v[static_cast<std::size_t>(src)] : b.lo());
  }
  return out;
}

/// Saturate a signed value to the k-bit signed range, keeping full width.
/// in_range iff bits [k-1 .. w-1] are all equal.
[[nodiscard]] inline Bus satToBitsSigned(Builder& b, const Bus& v, int k) {
  const int w = static_cast<int>(v.size());
  const NetId sign = v.back();
  Bus eqs;
  for (int j = k - 1; j < w - 1; ++j) {
    eqs.push_back(b.g2(GateType::kXnor, v[static_cast<std::size_t>(j)], sign));
  }
  const NetId in_range = b.reduceAnd(eqs);
  // Saturation pattern: bits [0..k-2] = ~sign, bit k-1..w-1 = sign.
  Bus satv;
  for (int j = 0; j < k - 1; ++j) satv.push_back(b.not1(sign));
  for (int j = k - 1; j < w; ++j) satv.push_back(sign);
  return b.mux(satv, v, in_range);
}

/// Signed saturating add with overflow flag (width preserved).
struct SatAdd {
  Bus sum;
  NetId ovf;
};
[[nodiscard]] inline SatAdd satAddOvf(Builder& b, const Bus& a, const Bus& c) {
  const Bus raw = b.add(a, c);
  const std::size_t w = a.size();
  const NetId sa = a[w - 1];
  const NetId sb = c[w - 1];
  const NetId sr = raw[w - 1];
  const NetId same = b.g2(GateType::kXnor, sa, sb);
  const NetId ovf = b.and2(same, b.xor2(sa, sr));
  Bus satv;
  for (std::size_t i = 0; i + 1 < w; ++i) satv.push_back(b.not1(sa));
  satv.push_back(sa);
  return SatAdd{b.mux(raw, satv, ovf), ovf};
}

/// Two's-complement negate with saturation (-(-2^(w-1)) -> 2^(w-1)-1).
[[nodiscard]] inline Bus negSat(Builder& b, const Bus& v) {
  const int w = static_cast<int>(v.size());
  const Bus wide = sext(v, w + 1);
  const Bus negw = b.neg(wide);
  return Builder::slice(satToBitsSigned(b, negw, w), 0, w);
}

}  // namespace corebist::ldpc::gl

#endif  // COREBIST_LDPC_GATELEVEL_COMMON_HPP_
