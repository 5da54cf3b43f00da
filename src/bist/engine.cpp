#include "bist/engine.hpp"

#include <numeric>
#include <stdexcept>
#include <unordered_map>

#include "fault/backend.hpp"
#include "fault/seq_fsim.hpp"

namespace corebist {

BistEngine::BistEngine(BistEngineConfig cfg) : cfg_(std::move(cfg)) {
  taps_ = cfg_.lfsr_taps.empty() ? primitiveTaps(cfg_.lfsr_width)
                                 : cfg_.lfsr_taps;
}

int BistEngine::attachModule(const Netlist& module,
                             std::vector<ConstrainedPort> constraints) {
  if (module.primaryInputs().size() > 64) {
    throw std::invalid_argument("BistEngine: module has > 64 inputs");
  }
  Hookup h;
  h.nl = std::make_unique<Netlist>(module);
  h.map.assign(module.primaryInputs().size(), InputSource{});

  std::unordered_map<NetId, int> pi_pos;
  for (std::size_t i = 0; i < module.primaryInputs().size(); ++i) {
    pi_pos.emplace(module.primaryInputs()[i], static_cast<int>(i));
  }

  std::vector<char> constrained(h.map.size(), 0);
  for (auto& c : constraints) {
    const PortBus* port = module.findPort(c.port_name);
    if (port == nullptr || !port->is_input) {
      throw std::invalid_argument("BistEngine: no input port named " +
                                  c.port_name);
    }
    if (static_cast<int>(port->bits.size()) != c.cg->width()) {
      throw std::invalid_argument("BistEngine: CG width mismatch on " +
                                  c.port_name);
    }
    const int cg_index = static_cast<int>(h.cgs.size());
    h.cgs.push_back(c.cg);
    for (std::size_t bit = 0; bit < port->bits.size(); ++bit) {
      const auto it = pi_pos.find(port->bits[bit]);
      if (it == pi_pos.end()) {
        throw std::invalid_argument("BistEngine: port bit is not a PI");
      }
      h.map[static_cast<std::size_t>(it->second)] =
          InputSource{InputSourceKind::kConstraint, cg_index,
                      static_cast<int>(bit)};
      constrained[static_cast<std::size_t>(it->second)] = 1;
    }
  }

  // Remaining inputs: replicate the ALFSR outputs (paper cases b/d:
  // "replicate the ALFSR outputs to reach the input port width"). Taps are
  // assigned with a stride coprime to the register width (a cheap phase
  // shift): adjacent module inputs must not ride adjacent shift-register
  // bits, or input k at cycle c simply equals input k+1 at cycle c+1.
  int stride = 7;
  while (std::gcd(stride, cfg_.lfsr_width) != 1) stride += 2;
  int free_idx = 0;
  for (std::size_t i = 0; i < h.map.size(); ++i) {
    if (constrained[i]) continue;
    h.map[i] = InputSource{InputSourceKind::kAlfsr,
                           (free_idx * stride) % cfg_.lfsr_width, 0};
    ++free_idx;
  }
  h.free_inputs = free_idx;
  modules_.push_back(std::move(h));
  return static_cast<int>(modules_.size()) - 1;
}

char BistEngine::architecturalCase(int m) const {
  const Hookup& h = modules_.at(static_cast<std::size_t>(m));
  const bool constrained = !h.cgs.empty();
  const bool fits = h.free_inputs <= cfg_.lfsr_width;
  if (!constrained) return fits ? 'a' : 'b';
  return fits ? 'c' : 'd';
}

std::vector<std::uint64_t> BistEngine::stimulus(int m, int cycles) const {
  const Hookup& h = modules_.at(static_cast<std::size_t>(m));
  Alfsr lfsr(cfg_.lfsr_width, taps_, cfg_.lfsr_seed);
  std::vector<std::uint64_t> out;
  out.reserve(static_cast<std::size_t>(cycles));
  std::vector<std::uint64_t> cg_vals(h.cgs.size(), 0);
  for (int c = 0; c < cycles; ++c) {
    const std::uint64_t lw = lfsr.output();
    // One valueAt per CG per cycle, not per constrained input bit.
    for (std::size_t g = 0; g < h.cgs.size(); ++g) {
      cg_vals[g] = h.cgs[g]->valueAt(c);
    }
    std::uint64_t w = 0;
    for (std::size_t j = 0; j < h.map.size(); ++j) {
      const InputSource& src = h.map[j];
      std::uint64_t bit = 0;
      if (src.kind == InputSourceKind::kAlfsr) {
        bit = (lw >> src.index) & 1u;
      } else {
        bit = (cg_vals[static_cast<std::size_t>(src.index)] >> src.bit) & 1u;
      }
      w |= bit << j;
    }
    out.push_back(w);
    lfsr.step();
  }
  return out;
}

MisrSpec BistEngine::misrSpec(int m) const {
  const Hookup& h = modules_.at(static_cast<std::size_t>(m));
  return makeMisrSpec(h.nl->primaryOutputs(), cfg_.misr_width);
}

std::uint64_t BistEngine::goldenSignature(int m, int cycles) const {
  return runAndSign(m, module(m), cycles);
}

std::uint64_t BistEngine::runAndSign(int m, const Netlist& physical,
                                     int cycles) const {
  const Hookup& h = modules_.at(static_cast<std::size_t>(m));
  if (physical.primaryInputs().size() != h.nl->primaryInputs().size() ||
      physical.primaryOutputs().size() != h.nl->primaryOutputs().size()) {
    throw std::invalid_argument("runAndSign: netlist is not pin-compatible");
  }
  const auto stim = stimulus(m, cycles);
  SeqFaultSim fsim(physical);
  return fsim.goodSignature(
      stim, cycles, makeMisrSpec(physical.primaryOutputs(), cfg_.misr_width));
}

FaultSimResult BistEngine::signatureCoverage(
    int m, std::span<const Fault> faults, int cycles,
    const FsimBackendOptions& bopts) const {
  const Hookup& h = modules_.at(static_cast<std::size_t>(m));
  const auto stim = stimulus(m, cycles);
  const std::unique_ptr<FaultSim> fsim =
      makeOrchestrator(SeqFaultSim(*h.nl), bopts);
  const CyclePatternSource patterns(stim, h.nl->primaryInputs().size());
  FaultSimOptions opts;
  opts.cycles = cycles;
  opts.misr = misrSpec(m);
  return fsim->run(faults, patterns, opts);
}

Netlist withGateDefect(const Netlist& nl, GateId gate, GateType new_type) {
  Netlist copy = nl;
  copy.mutateGateType(gate, new_type);
  return copy;
}

}  // namespace corebist
