// Word-level structural builder.
//
// The Builder is the in-repo substitute for RTL synthesis: every module of
// the case study (LDPC bit/check/control units), the BIST engine hardware
// and the P1500 wrapper hardware are emitted through it as trees of 2-input
// primitives and flip-flops. Buses are LSB-first vectors of nets.
#ifndef COREBIST_NETLIST_BUILDER_HPP_
#define COREBIST_NETLIST_BUILDER_HPP_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"

namespace corebist {

/// LSB-first group of nets treated as a word.
using Bus = std::vector<NetId>;

class Builder {
 public:
  explicit Builder(Netlist& nl) : nl_(nl) {}

  [[nodiscard]] Netlist& netlist() noexcept { return nl_; }

  // -- Ports and state --------------------------------------------------
  /// Create a `width`-bit primary-input bus registered as a port.
  Bus input(const std::string& name, int width);
  /// Register a bus as a named primary-output port.
  void output(const std::string& name, const Bus& b);
  /// Create a `width`-bit register (Q side); bind with connect() later.
  Bus state(const std::string& name, int width);
  /// Bind register D inputs: q was produced by state().
  void connect(const Bus& q, const Bus& d);
  /// Register with enable: q <- en ? d : q.
  void connectEn(const Bus& q, const Bus& d, NetId en);
  /// Register with enable and synchronous clear (clear wins).
  void connectEnClr(const Bus& q, const Bus& d, NetId en, NetId clear);

  // -- Constants ---------------------------------------------------------
  [[nodiscard]] NetId lo();
  [[nodiscard]] NetId hi();
  [[nodiscard]] Bus constant(int width, std::uint64_t value);

  // -- Bit operations ------------------------------------------------------
  [[nodiscard]] NetId g1(GateType t, NetId a) { return nl_.addGate1(t, a); }
  [[nodiscard]] NetId g2(GateType t, NetId a, NetId b) {
    return nl_.addGate2(t, a, b);
  }
  [[nodiscard]] NetId mux(NetId a, NetId b, NetId sel) {
    return nl_.addMux(a, b, sel);
  }
  [[nodiscard]] NetId and2(NetId a, NetId b) { return g2(GateType::kAnd, a, b); }
  [[nodiscard]] NetId or2(NetId a, NetId b) { return g2(GateType::kOr, a, b); }
  [[nodiscard]] NetId xor2(NetId a, NetId b) { return g2(GateType::kXor, a, b); }
  [[nodiscard]] NetId not1(NetId a) { return g1(GateType::kNot, a); }

  // -- Bus operations ------------------------------------------------------
  [[nodiscard]] Bus bwNot(const Bus& a);
  [[nodiscard]] Bus bw(GateType t, const Bus& a, const Bus& b);
  [[nodiscard]] Bus mux(const Bus& a, const Bus& b, NetId sel);
  /// Tree mux of 2^k inputs (inputs.size() must be a power of two) selected
  /// by sel (k bits).
  [[nodiscard]] Bus muxN(std::span<const Bus> inputs, const Bus& sel);
  [[nodiscard]] NetId reduceAnd(const Bus& a);
  [[nodiscard]] NetId reduceXor(const Bus& a);

  // -- Arithmetic (unsigned / two's complement) -----------------------------
  /// Ripple-carry add; returns sum (same width) and carry out.
  [[nodiscard]] std::pair<Bus, NetId> addc(const Bus& a, const Bus& b,
                                           NetId cin);
  [[nodiscard]] Bus add(const Bus& a, const Bus& b);
  [[nodiscard]] Bus sub(const Bus& a, const Bus& b);
  [[nodiscard]] Bus inc(const Bus& a);
  [[nodiscard]] Bus neg(const Bus& a);
  /// |a| for two's-complement a (width preserved; INT_MIN saturates).
  [[nodiscard]] Bus absSigned(const Bus& a);

  // -- Comparisons -----------------------------------------------------------
  [[nodiscard]] NetId eq(const Bus& a, const Bus& b);
  [[nodiscard]] NetId eqConst(const Bus& a, std::uint64_t value);
  /// a < b, unsigned.
  [[nodiscard]] NetId ltU(const Bus& a, const Bus& b);
  /// min(a, b) unsigned, plus (a<b) flag.
  [[nodiscard]] std::pair<Bus, NetId> minU(const Bus& a, const Bus& b);

  // -- Shifts / selection ------------------------------------------------
  /// Logical shift by a constant (left if k>0), zero fill.
  [[nodiscard]] Bus shiftConst(const Bus& a, int k);
  /// One-hot decode of a k-bit value into 2^k lines.
  [[nodiscard]] Bus decode(const Bus& a);

  // -- Sequential idioms -----------------------------------------------------
  /// Free-running counter with synchronous clear and enable. Returns Q.
  Bus counter(const std::string& name, int width, NetId en, NetId clear);

  // -- Slicing helpers (no hardware) ---------------------------------------
  [[nodiscard]] static Bus slice(const Bus& a, int lo, int len);
  [[nodiscard]] static Bus concat(std::span<const Bus> parts);

 private:
  Netlist& nl_;
  NetId lo_ = kNullNet;
  NetId hi_ = kNullNet;
};

}  // namespace corebist

#endif  // COREBIST_NETLIST_BUILDER_HPP_
