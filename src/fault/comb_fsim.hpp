// Pattern-parallel (PPSFP) combinational fault simulation, wide-lane.
//
// Used for the full-scan view of a module: scan cells turn flip-flops into
// pseudo-PIs/pseudo-POs, so each test pattern is one combinational vector.
// W * 64 patterns are packed per block (LaneWord<W> per net); faults are
// simulated one at a time with event-driven forward propagation from the
// fault site (only the affected cone is re-evaluated), which is the classic
// single-fault-propagation scheme TetraMax-class tools use — widened so one
// propagation pass grades W * 64 patterns and the per-gate bookkeeping
// (level buckets, stamps, CSR fanout walks) is amortized across all lanes.
// Good simulation runs the netlist's GateProgram on LaneWord<W>; the engine
// builds it once at construction and shares it with its clones, whose
// propagation reads gate levels from it.
//
// Results are byte-identical at every W: lane indices map to global pattern
// indices, wide stimulus fills decompose into the same per-64-lane sub-block
// fills narrow kernels issue, and the stall exit replays the narrow kernel's
// per-64-pattern-block accounting inside each wide pass (see run()).
// tests/wide_fsim_test.cpp enforces this against the W=1 reference.
#ifndef COREBIST_FAULT_COMB_FSIM_HPP_
#define COREBIST_FAULT_COMB_FSIM_HPP_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "fault/fault.hpp"
#include "fault/fault_sim.hpp"
#include "fault/lane.hpp"
#include "netlist/netlist.hpp"
#include "sim/gate_program.hpp"

namespace corebist {

template <int W>
class CombFaultSimT final : public FaultSim {
 public:
  /// Detection masks and net values cover kLanes = W * 64 patterns.
  using Word = LaneWord<W>;
  static constexpr int kWords = W;
  static constexpr int kLanes = 64 * W;

  /// `inputs` are the controllable nets (PIs + pseudo-PIs), `observed` the
  /// observable nets (POs + pseudo-POs).
  CombFaultSimT(const Netlist& nl, std::span<const NetId> inputs,
                std::span<const NetId> observed);

  /// Campaign entry point (FaultSim): grade `faults` against the pattern
  /// stream, with fault dropping, stall exit, per-window masks and first-K
  /// dictionary records. Stuck-at campaigns use `patterns` alone; transition
  /// campaigns additionally set `opts.launch` (the v1 stream) and every
  /// block pair is applied through loadPairBlock with detection evaluated
  /// on v2. MISR compaction is a sequential-engine feature and is rejected.
  [[nodiscard]] FaultSimResult run(std::span<const Fault> faults,
                                   const PatternSource& patterns,
                                   const FaultSimOptions& opts) override;

  [[nodiscard]] std::unique_ptr<FaultSim> clone() const override;

  /// Good-simulate one block of patterns. Blocks narrower than W lane words
  /// are accepted (missing lanes are masked off); wider blocks throw.
  void loadBlock(const PatternBlock& block);

  /// Good-simulate an aligned pattern-pair block (v1 launch, v2 capture) for
  /// transition faults. Detection is evaluated on v2.
  void loadPairBlock(const PatternBlock& v1, const PatternBlock& v2);

  /// Lanes (patterns of the loaded block) that detect `f`.
  [[nodiscard]] Word detect(const Fault& f);

  /// Good value of a net in the loaded (v2) block.
  [[nodiscard]] Word goodValue(NetId n) const { return good_[n]; }

  [[nodiscard]] const Netlist& netlist() const noexcept override {
    return nl_;
  }
  [[nodiscard]] std::span<const NetId> inputs() const noexcept {
    return inputs_;
  }
  [[nodiscard]] std::span<const NetId> observed() const noexcept {
    return observed_;
  }

 private:
  void simulateGood(const PatternBlock& block, std::vector<Word>& dst);
  /// detect() with the per-fault switch hoisted: the campaign loop validates
  /// kinds once per run and passes the precomputed forced-word polarity.
  [[nodiscard]] Word detectStuckAt(const Fault& f, bool sa1);
  Word propagate(NetId site_net, const Word& faulty_word, GateId branch_gate,
                 std::uint8_t branch_pin);
  [[nodiscard]] const Word& readFaulty(NetId n) const {
    return stamp_[n] == epoch_ ? fval_[n] : good_[n];
  }

  const Netlist& nl_;
  std::shared_ptr<const GateProgram> prog_;
  const ReaderCsr* readers_;  // materialized at construction (thread safety)
  std::vector<NetId> inputs_;
  std::vector<NetId> observed_;
  std::vector<char> observed_flag_;

  std::vector<Word> good_;    // v2 (capture) good values
  std::vector<Word> goodv1_;  // v1 (launch) good values; pair mode
  bool pair_mode_ = false;
  Word lane_mask_ = Word::ones();

  // Event-driven propagation scratch (epoch-stamped copy-on-write).
  std::vector<Word> fval_;
  std::vector<std::uint32_t> stamp_;
  std::vector<std::uint32_t> in_queue_;
  std::uint32_t epoch_ = 0;
  std::vector<std::vector<GateId>> level_buckets_;
};

// The kernel widths linked into the library: the 64-lane reference, the
// 128-lane middle point (bench sweep), the 256-lane default and the
// 512-lane AVX-512 width (one 512-bit op per LaneWord when compiled in;
// portable multi-word loop otherwise). Additional widths need an explicit
// instantiation in comb_fsim.cpp.
extern template class CombFaultSimT<1>;
extern template class CombFaultSimT<2>;
extern template class CombFaultSimT<4>;
extern template class CombFaultSimT<8>;
#if COREBIST_LANE_WORDS != 1 && COREBIST_LANE_WORDS != 2 && \
    COREBIST_LANE_WORDS != 4 && COREBIST_LANE_WORDS != 8
extern template class CombFaultSimT<kLaneWords>;
#endif

/// The production kernel: kLaneWords * 64 pattern lanes per pass.
using CombFaultSim = CombFaultSimT<kLaneWords>;

}  // namespace corebist

#endif  // COREBIST_FAULT_COMB_FSIM_HPP_
