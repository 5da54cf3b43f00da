#include "analyze/lint.hpp"

#include <algorithm>
#include <string>
#include <unordered_map>

#include "analyze/hazards.hpp"

namespace corebist {

namespace {

/// The linter never calls Netlist::readerCsr(): the CSR build indexes
/// offsets by raw net id, so a gate reading a nonexistent net — exactly the
/// malformed input lint exists to report — would crash it. All adjacency
/// here is built locally with bounds checks.
struct Graph {
  std::size_t num_nets = 0;
  std::vector<char> gate_ok;           // gate references only in-range nets
  std::vector<int> gate_drivers;       // per net: # gates writing it
  std::vector<int> gate_readers;       // per net: # (gate, pin) reads
  std::vector<char> is_pi, is_state, is_po, dff_read;
};

Graph buildGraph(const Netlist& nl) {
  Graph g;
  g.num_nets = nl.numNets();
  g.gate_ok.assign(nl.numGates(), 1);
  g.gate_drivers.assign(g.num_nets, 0);
  g.gate_readers.assign(g.num_nets, 0);
  g.is_pi.assign(g.num_nets, 0);
  g.is_state.assign(g.num_nets, 0);
  g.is_po.assign(g.num_nets, 0);
  g.dff_read.assign(g.num_nets, 0);
  for (const NetId n : nl.primaryInputs()) {
    if (n < g.num_nets) g.is_pi[n] = 1;
  }
  for (const NetId n : nl.primaryOutputs()) {
    if (n < g.num_nets) g.is_po[n] = 1;
  }
  for (const Dff& ff : nl.dffs()) {
    if (ff.q < g.num_nets) g.is_state[ff.q] = 1;
    if (ff.d != kNullNet && ff.d < g.num_nets) g.dff_read[ff.d] = 1;
  }
  const auto& gates = nl.gates();
  for (GateId id = 0; id < gates.size(); ++id) {
    const Gate& gate = gates[id];
    if (gate.out >= g.num_nets) g.gate_ok[id] = 0;
    for (int p = 0; p < gate.nin; ++p) {
      if (gate.in[static_cast<std::size_t>(p)] >= g.num_nets) {
        g.gate_ok[id] = 0;
      }
    }
    if (g.gate_ok[id] == 0) continue;
    ++g.gate_drivers[gate.out];
    for (int p = 0; p < gate.nin; ++p) {
      ++g.gate_readers[gate.in[static_cast<std::size_t>(p)]];
    }
  }
  return g;
}

void lintInvalidRefs(const Netlist& nl, const Graph& g, LintReport& report) {
  for (GateId id = 0; id < nl.numGates(); ++id) {
    if (g.gate_ok[id] != 0) continue;
    const Gate& gate = nl.gates()[id];
    Diagnostic d;
    d.severity = Severity::kError;
    d.rule = std::string(rules::kInvalidNetRef);
    d.message = "gate g" + std::to_string(id) + " (" +
                std::string(gateName(gate.type)) +
                ") references a net outside the netlist's " +
                std::to_string(g.num_nets) + " nets";
    if (gate.out < g.num_nets) {
      d.nets.push_back(gate.out);
      d.witness.push_back(gate.out);
    }
    report.diagnostics.push_back(std::move(d));
  }
}

void lintMultiDriven(const Netlist& nl, const Graph& g, LintReport& report) {
  for (NetId n = 0; n < g.num_nets; ++n) {
    const int total = g.gate_drivers[n] + (g.is_pi[n] != 0 ? 1 : 0) +
                      (g.is_state[n] != 0 ? 1 : 0);
    if (total <= 1) continue;
    Diagnostic d;
    d.severity = Severity::kError;
    d.rule = std::string(rules::kMultiDrivenNet);
    d.message = "net " + nl.netName(n) + " has " + std::to_string(total) +
                " drivers:";
    for (GateId id = 0; id < nl.numGates(); ++id) {
      if (g.gate_ok[id] != 0 && nl.gates()[id].out == n) {
        d.message += " gate g" + std::to_string(id) + " (" +
                     std::string(gateName(nl.gates()[id].type)) + ")";
        // The contended sources: each rogue driver's first input net.
        if (nl.gates()[id].nin > 0) d.witness.push_back(nl.gates()[id].in[0]);
      }
    }
    if (g.is_pi[n] != 0) d.message += " primary-input";
    if (g.is_state[n] != 0) d.message += " flip-flop-Q";
    d.nets.push_back(n);
    report.diagnostics.push_back(std::move(d));
  }
}

void lintUndriven(const Netlist& nl, const Graph& g, LintReport& report) {
  for (NetId n = 0; n < g.num_nets; ++n) {
    if (g.gate_drivers[n] > 0 || g.is_pi[n] != 0 || g.is_state[n] != 0) {
      continue;
    }
    const bool read =
        g.gate_readers[n] > 0 || g.dff_read[n] != 0 || g.is_po[n] != 0;
    if (!read) continue;  // dead net: never materialized, not a defect
    Diagnostic d;
    d.severity = Severity::kError;
    d.rule = std::string(rules::kUndrivenNet);
    d.message = "net " + nl.netName(n) + " is undriven but read by " +
                std::to_string(g.gate_readers[n]) + " gate pin(s)" +
                (g.dff_read[n] != 0 ? ", a flip-flop D input" : "") +
                (g.is_po[n] != 0 ? ", marked primary output" : "");
    d.nets.push_back(n);
    // Witness: where the float propagates first — the reading gates'
    // output nets, ascending.
    for (GateId id = 0; id < nl.numGates(); ++id) {
      if (g.gate_ok[id] == 0) continue;
      const Gate& gate = nl.gates()[id];
      for (int p = 0; p < gate.nin; ++p) {
        if (gate.in[static_cast<std::size_t>(p)] == n) {
          d.witness.push_back(gate.out);
          break;
        }
      }
    }
    report.diagnostics.push_back(std::move(d));
  }
}

void lintUnclockedFlops(const Netlist& nl, LintReport& report) {
  const auto& dffs = nl.dffs();
  for (std::size_t i = 0; i < dffs.size(); ++i) {
    if (dffs[i].d != kNullNet) continue;
    Diagnostic d;
    d.severity = Severity::kError;
    d.rule = std::string(rules::kUnclockedFlop);
    d.message = "flip-flop " + std::to_string(i) + " (Q = " +
                nl.netName(dffs[i].q) +
                ") has an unbound D input: it can never capture";
    d.nets.push_back(dffs[i].q);
    d.witness.push_back(dffs[i].q);
    report.diagnostics.push_back(std::move(d));
  }
}

/// Kahn peel over the combinational gate graph; returns the gates left
/// standing (gates on or downstream of a combinational cycle).
std::vector<char> peelAcyclic(const Netlist& nl, const Graph& g) {
  const auto& gates = nl.gates();
  std::vector<int> pending(gates.size(), 0);
  for (GateId id = 0; id < gates.size(); ++id) {
    if (g.gate_ok[id] == 0) continue;  // broken gates are not graph nodes
    for (int p = 0; p < gates[id].nin; ++p) {
      const NetId in = gates[id].in[static_cast<std::size_t>(p)];
      if (g.gate_drivers[in] > 0) ++pending[id];
    }
  }
  // A net with several drivers retires a dependency once per driver, so a
  // multi-driven net cannot wedge the peel into a spurious loop report.
  std::vector<GateId> ready;
  std::vector<char> remaining(gates.size(), 0);
  for (GateId id = 0; id < gates.size(); ++id) {
    if (g.gate_ok[id] == 0) continue;
    if (pending[id] == 0) {
      ready.push_back(id);
    } else {
      remaining[id] = 1;
    }
  }
  std::size_t head = 0;
  while (head < ready.size()) {
    const GateId id = ready[head++];
    const NetId out = gates[id].out;
    for (GateId r = 0; r < gates.size(); ++r) {
      if (g.gate_ok[r] == 0 || remaining[r] == 0) continue;
      for (int p = 0; p < gates[r].nin; ++p) {
        if (gates[r].in[static_cast<std::size_t>(p)] == out &&
            --pending[r] == 0) {
          remaining[r] = 0;
          ready.push_back(r);
        }
      }
    }
  }
  return remaining;
}

void lintCombLoops(const Netlist& nl, const Graph& g, LintReport& report) {
  const std::vector<char> remaining = peelAcyclic(nl, g);
  const auto& gates = nl.gates();
  // Map each net to one remaining driver gate so the backward walk is O(1).
  std::unordered_map<NetId, GateId> remaining_driver;
  for (GateId id = 0; id < gates.size(); ++id) {
    if (remaining[id] != 0) remaining_driver.emplace(gates[id].out, id);
  }
  std::vector<char> in_cycle(gates.size(), 0);
  for (GateId start = 0; start < gates.size(); ++start) {
    if (remaining[start] == 0 || in_cycle[start] != 0) continue;
    // Walk predecessors through remaining gates until a gate repeats (a
    // cycle) or the walk falls into an already-reported cycle.
    std::vector<GateId> path;
    std::vector<int> pos(gates.size(), -1);
    GateId cur = start;
    bool found = false;
    while (true) {
      if (pos[cur] >= 0) {
        path.erase(path.begin(), path.begin() + pos[cur]);
        found = true;
        break;
      }
      if (in_cycle[cur] != 0) break;  // merges into a reported cycle
      pos[cur] = static_cast<int>(path.size());
      path.push_back(cur);
      constexpr GateId kNoGate = static_cast<GateId>(-1);
      GateId next = kNoGate;
      for (int p = 0; p < gates[cur].nin; ++p) {
        const auto it = remaining_driver.find(
            gates[cur].in[static_cast<std::size_t>(p)]);
        if (it != remaining_driver.end()) {
          next = it->second;
          break;
        }
      }
      if (next == kNoGate) break;  // fed by a cycle but not on one
      cur = next;
    }
    if (!found) continue;
    // `path` holds the cycle in backward (consumer -> producer) order;
    // reverse it so the witness reads producer -> consumer.
    std::reverse(path.begin(), path.end());
    Diagnostic d;
    d.severity = Severity::kError;
    d.rule = std::string(rules::kCombLoop);
    d.message =
        "combinational loop through " + std::to_string(path.size()) +
        " gate(s):";
    for (const GateId id : path) {
      in_cycle[id] = 1;
      d.witness.push_back(gates[id].out);
      d.message += " " + nl.netName(gates[id].out);
    }
    d.nets = d.witness;
    report.diagnostics.push_back(std::move(d));
  }
}

void lintUnreachable(const Netlist& nl, const Graph& g, LintReport& report) {
  const auto& gates = nl.gates();
  // Reverse reachability from the observation points: POs and DFF D nets.
  std::unordered_map<NetId, std::vector<GateId>> drivers;
  for (GateId id = 0; id < gates.size(); ++id) {
    if (g.gate_ok[id] != 0) drivers[gates[id].out].push_back(id);
  }
  std::vector<char> reached(gates.size(), 0);
  std::vector<GateId> work;
  auto seed = [&](NetId n) {
    const auto it = drivers.find(n);
    if (it == drivers.end()) return;
    for (const GateId id : it->second) {
      if (reached[id] == 0) {
        reached[id] = 1;
        work.push_back(id);
      }
    }
  };
  for (const NetId n : nl.primaryOutputs()) seed(n);
  for (const Dff& ff : nl.dffs()) {
    if (ff.d != kNullNet) seed(ff.d);
  }
  while (!work.empty()) {
    const GateId id = work.back();
    work.pop_back();
    for (int p = 0; p < gates[id].nin; ++p) {
      seed(gates[id].in[static_cast<std::size_t>(p)]);
    }
  }
  Diagnostic d;
  for (GateId id = 0; id < gates.size(); ++id) {
    if (g.gate_ok[id] == 0 || reached[id] != 0) continue;
    d.nets.push_back(gates[id].out);
  }
  if (d.nets.empty()) return;
  d.severity = Severity::kWarning;
  d.rule = std::string(rules::kUnreachableGate);
  d.message = std::to_string(d.nets.size()) +
              " gate(s) feed no primary output or flip-flop: faults there "
              "are untestable and their area is dead";
  d.witness = d.nets;
  report.diagnostics.push_back(std::move(d));
}

}  // namespace

LintReport lintNetlist(const Netlist& nl) {
  LintReport report;
  report.netlist = nl.name();
  const Graph g = buildGraph(nl);
  lintInvalidRefs(nl, g, report);
  lintMultiDriven(nl, g, report);
  lintUndriven(nl, g, report);
  lintUnclockedFlops(nl, report);
  lintCombLoops(nl, g, report);
  lintUnreachable(nl, g, report);
  if (auto hazard = packedStimulusHazard(nl); hazard.has_value()) {
    report.diagnostics.push_back(std::move(*hazard));
  }
  return report;
}

}  // namespace corebist
