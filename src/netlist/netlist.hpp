// Gate-level netlist container.
//
// A Netlist is a flat sea of 1-bit nets connected by primitive gates and
// D flip-flops. Primary inputs, primary outputs and flip-flop state nets are
// the only undriven (by gates) nets allowed. Ports are registered as named,
// ordered buses so that higher layers (BIST engine, P1500 wrapper, scan
// insertion) can reason about port widths exactly as the paper's Table 1
// does.
#ifndef COREBIST_NETLIST_NETLIST_HPP_
#define COREBIST_NETLIST_NETLIST_HPP_

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "netlist/gate.hpp"

namespace corebist {

/// A D flip-flop: q is sampled from d on every clock edge; reset forces q=0.
struct Dff {
  NetId d = kNullNet;
  NetId q = kNullNet;
};

/// A named, ordered group of nets (LSB first). Used for module ports.
struct PortBus {
  std::string name;
  std::vector<NetId> bits;
  bool is_input = false;
};

/// (gate, pin) pair: one reader of a net. pin indexes Gate::in.
struct NetReader {
  GateId gate = 0;
  std::uint8_t pin = 0;
};

/// Flattened fanout index in CSR form: the readers of net n are
/// flat[offsets[n] .. offsets[n+1]), in ascending (gate, pin) order. One
/// contiguous allocation instead of a vector-of-vectors, so the hot
/// traversals (fault propagation, levelization, fanout enumeration) walk a
/// flat array without chasing a per-net heap vector.
struct ReaderCsr {
  std::vector<std::uint32_t> offsets;  // numNets() + 1 entries once built
  std::vector<NetReader> flat;

  [[nodiscard]] std::span<const NetReader> of(NetId n) const noexcept {
    return {flat.data() + offsets[n], flat.data() + offsets[n + 1]};
  }
  [[nodiscard]] std::size_t countOf(NetId n) const noexcept {
    return offsets[n + 1] - offsets[n];
  }
};

class Netlist {
 public:
  Netlist() = default;
  explicit Netlist(std::string name) : name_(std::move(name)) {}

  /// Create a fresh, undriven net.
  NetId newNet();

  /// Add a gate; creates and returns its output net.
  NetId addGate(GateType type, std::span<const NetId> inputs);
  NetId addGate1(GateType type, NetId a);
  NetId addGate2(GateType type, NetId a, NetId b);
  /// sel ? b : a
  NetId addMux(NetId a, NetId b, NetId sel);

  /// Create a flip-flop with an initially unbound D input; returns the Q net.
  NetId addDff();
  /// Bind the D input of the flip-flop whose output is `q`.
  void connectDff(NetId q, NetId d);

  /// Re-bind an already-connected D input (scan insertion threads a mux in
  /// front of every flip-flop).
  void rebindDff(NetId q, NetId new_d);

  /// Drive an existing, currently undriven net from `source` through a BUF.
  /// Used to stitch absorbed sub-netlists to parent logic.
  void driveNet(NetId target, NetId source);

  /// Declare a primary-input net.
  NetId addPrimaryInput();
  /// Declare an existing net as primary output.
  void markPrimaryOutput(NetId n);

  /// Register a named port bus (for Table 1 style reporting and wrapping).
  void registerPort(std::string name, std::span<const NetId> bits,
                    bool is_input);

  /// Re-type an existing gate (arities must match). Used by the fault
  /// injection utilities to model manufacturing defects.
  void mutateGateType(GateId g, GateType t);

  /// Re-route one fanin pin of an existing gate to a different net. Like
  /// mutateGateType this is defect surgery: it can create the broken
  /// structures (combinational loops, reads of undriven nets) that the
  /// static linter exists to catch, so it performs no structural checks
  /// beyond id validity.
  void rebindGateInput(GateId g, std::uint8_t pin, NetId n);

  /// Add a second BUF driver onto an already-driven net (a bridging/short
  /// defect). driverOf() keeps reporting the original driver; the linter
  /// reports the contention as `multi-driven-net`. Defect surgery — the
  /// result fails validate().
  void addRogueDriver(NetId target, NetId source);

  /// Optional debug name for a net.
  void setNetName(NetId n, std::string name);
  [[nodiscard]] std::string netName(NetId n) const;

  // -- Accessors ------------------------------------------------------------
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::size_t numNets() const noexcept { return num_nets_; }
  [[nodiscard]] std::size_t numGates() const noexcept { return gates_.size(); }
  [[nodiscard]] const std::vector<Gate>& gates() const noexcept {
    return gates_;
  }
  [[nodiscard]] const Gate& gate(GateId g) const { return gates_.at(g); }
  [[nodiscard]] const std::vector<Dff>& dffs() const noexcept { return dffs_; }
  [[nodiscard]] const std::vector<NetId>& primaryInputs() const noexcept {
    return pis_;
  }
  [[nodiscard]] const std::vector<NetId>& primaryOutputs() const noexcept {
    return pos_;
  }
  [[nodiscard]] const std::vector<PortBus>& ports() const noexcept {
    return ports_;
  }
  [[nodiscard]] const PortBus* findPort(std::string_view name) const;

  /// Total input (output) port width over registered buses.
  [[nodiscard]] int portWidth(bool inputs) const;

  /// GateId driving net `n`, or kNoDriver if the net is a PI/state/unbound.
  static constexpr GateId kNoDriver = 0xFFFF'FFFFu;
  [[nodiscard]] GateId driverOf(NetId n) const;

  /// True if `n` is the Q output of some flip-flop.
  [[nodiscard]] bool isStateNet(NetId n) const;

  /// All (gate, pin) readers of every net, flattened to CSR. Built on
  /// demand, invalidated by structural edits. Not thread-safe to *build*:
  /// materialize it (any call) before sharing the netlist across worker
  /// threads — the fault-sim engines do this in their constructors.
  [[nodiscard]] const ReaderCsr& readerCsr() const;

  /// Throws std::logic_error on dangling DFF inputs, multiply-driven nets,
  /// or gates reading nonexistent nets.
  void validate() const;

  /// Merge another netlist into this one. Returns the net-id offset that was
  /// added to every net of `other` (gate ids are offset by prior numGates()).
  /// Ports of `other` are re-registered with `prefix + name`. The absorbed
  /// PIs/POs are NOT adopted: the parent usually drives/consumes them.
  NetId absorb(const Netlist& other, const std::string& prefix);

  /// Adopt the absorbed netlist's PIs and POs as this netlist's own (used
  /// when wrapping keeps the original port boundary, e.g. scan insertion).
  void adoptPortNets(const Netlist& other, NetId offset);

 private:
  void invalidateCaches() noexcept {
    reader_csr_.offsets.clear();
    reader_csr_.flat.clear();
  }

  std::string name_ = "top";
  std::size_t num_nets_ = 0;
  std::vector<Gate> gates_;
  std::vector<Dff> dffs_;
  std::vector<NetId> pis_;
  std::vector<NetId> pos_;
  std::vector<PortBus> ports_;
  std::unordered_map<NetId, std::string> net_names_;
  // driver_[net] = gate id or kNoDriver. Grown lazily.
  std::vector<GateId> driver_;
  std::unordered_map<NetId, int> dff_of_q_;
  mutable ReaderCsr reader_csr_;
};

}  // namespace corebist

#endif  // COREBIST_NETLIST_NETLIST_HPP_
