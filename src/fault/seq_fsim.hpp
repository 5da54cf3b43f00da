// Fault-parallel sequential fault simulation.
//
// The BIST engine applies one pseudo-random pattern per clock at speed and
// observes module outputs (through MISRs) every cycle; fault effects persist
// in flip-flop state. This simulator packs the good machine into bit 0 of
// every 64-bit net word and up to 63 faulty machines into bits 1..63; all
// machines share the broadcast stimulus. Gates are evaluated by the
// netlist's GateProgram, built once in the constructor and shared by every
// clone. Fault injection patches machine bits at the fault site once the
// site's level is complete: the driver's level for stems, the consuming
// gate's level for branches, whose output is re-evaluated for the faulty
// machine with the pin patched. Readers sit at higher levels, so they all
// see the patched value.
//
// Transition-delay faults use the gross-delay model: the slow edge arrives
// after the next clock, so the site presents
//   slow-to-rise:  cur AND prev     slow-to-fall:  cur OR prev
// of the machine's own raw site value across consecutive cycles.
//
// Two-pass scheduling: a short prepass drops the easy majority of faults,
// survivors are regrouped densely and re-run for the full pattern budget.
#ifndef COREBIST_FAULT_SEQ_FSIM_HPP_
#define COREBIST_FAULT_SEQ_FSIM_HPP_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "fault/fault.hpp"
#include "fault/fault_sim.hpp"
#include "netlist/netlist.hpp"
#include "sim/gate_program.hpp"

namespace corebist {

class SeqFaultSim final : public FaultSim {
 public:
  explicit SeqFaultSim(const Netlist& nl);

  /// Run `faults` against `stimulus` (stimulus[c] bit j drives the j-th
  /// primary input at cycle c; requires <= 64 primary inputs).
  [[nodiscard]] FaultSimResult run(std::span<const Fault> faults,
                                   std::span<const std::uint64_t> stimulus,
                                   const FaultSimOptions& opts) const;

  /// Campaign entry point (FaultSim): uses the source's packed per-cycle
  /// words directly when available, otherwise transposes blocks into the
  /// per-cycle stream (requires width <= 64).
  [[nodiscard]] FaultSimResult run(std::span<const Fault> faults,
                                   const PatternSource& patterns,
                                   const FaultSimOptions& opts) override;

  [[nodiscard]] const Netlist& netlist() const noexcept override {
    return nl_;
  }
  [[nodiscard]] std::unique_ptr<FaultSim> clone() const override;

  /// Good-machine MISR signature for a stimulus (no faults), for golden
  /// signature generation: bit j is MISR tap j.
  [[nodiscard]] std::uint64_t goodSignature(
      std::span<const std::uint64_t> stimulus, int cycles,
      const MisrSpec& misr) const;

 private:
  const Netlist& nl_;
  std::shared_ptr<const GateProgram> prog_;
};

}  // namespace corebist

#endif  // COREBIST_FAULT_SEQ_FSIM_HPP_
