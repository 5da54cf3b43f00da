// google-benchmark micro-benchmarks of the substrates: logic simulation,
// fault simulation, PODEM, ALFSR/MISR stepping, and the protocol stack.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "atpg/podem.hpp"
#include "bist/engine.hpp"
#include "bist/lfsr.hpp"
#include "bist/misr.hpp"
#include "fault/backend.hpp"
#include "fault/fault.hpp"
#include "fault/seq_fsim.hpp"
#include "jtag/driver.hpp"
#include "ldpc/gatelevel.hpp"
#include "scan/scan.hpp"
#include "sim/seq_sim.hpp"

namespace {

using namespace corebist;

void BM_CombEvalBitNode(benchmark::State& state) {
  const Netlist nl = ldpc::buildBitNode();
  SeqSim sim(nl);
  sim.reset();
  std::uint64_t c = 0;
  for (auto _ : state) {
    for (const NetId pi : nl.primaryInputs()) {
      sim.comb().set(pi, c * 0x9E3779B97F4A7C15ull);
    }
    sim.step();
    ++c;
    benchmark::DoNotOptimize(sim.comb().values().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(nl.numGates()));
}
BENCHMARK(BM_CombEvalBitNode);

void BM_CombEvalCheckNode(benchmark::State& state) {
  const Netlist nl = ldpc::buildCheckNode();
  SeqSim sim(nl);
  sim.reset();
  std::uint64_t c = 0;
  for (auto _ : state) {
    for (const NetId pi : nl.primaryInputs()) {
      sim.comb().set(pi, c * 0x9E3779B97F4A7C15ull);
    }
    sim.step();
    ++c;
    benchmark::DoNotOptimize(sim.comb().values().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(nl.numGates()));
}
BENCHMARK(BM_CombEvalCheckNode);

void BM_SeqFaultSimControlUnit(benchmark::State& state) {
  const Netlist nl = ldpc::buildControlUnit();
  const FaultUniverse u = enumerateStuckAt(nl);
  BistEngine engine;
  const int m = engine.attachModule(nl);
  const auto stim = engine.stimulus(m, 512);
  SeqFaultSim fsim(nl);
  FaultSimOptions o;
  o.cycles = 512;
  for (auto _ : state) {
    const auto r = fsim.run(u.faults, stim, o);
    benchmark::DoNotOptimize(r.detected);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(u.faults.size()));
}
BENCHMARK(BM_SeqFaultSimControlUnit);

// The comb kernel's lane-width sweep: CONTROL_UNIT's full-scan view graded
// serially, full length (no fault dropping), over 4096 random patterns, at
// 64 x state.range(0) pattern lanes. items_per_second counts fault-patterns.
void BM_CombFaultSimLanes(benchmark::State& state) {
  const std::vector<int> chains = {14, 28};
  const Netlist scanned =
      buildScannedModule(ldpc::buildControlUnit(), chains);
  const ScanView view = makeScanView(scanned, chains);
  const FaultUniverse u = enumerateStuckAt(scanned);
  const int patterns = 4096;
  const RandomPatternSource source(0xB15F, view.inputs.size(), patterns);
  FaultSimOptions o;
  o.cycles = patterns;
  o.prepass_cycles = 0;
  o.drop_detected = false;
  const auto fsim = makeCombFaultSim(
      scanned, view.inputs, view.observed,
      FsimBackendOptions{.lane_words = static_cast<int>(state.range(0))});
  for (auto _ : state) {
    const auto r = fsim->run(u.faults, source, o);
    benchmark::DoNotOptimize(r.detected);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(u.faults.size()) *
                          patterns);
}
BENCHMARK(BM_CombFaultSimLanes)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// PODEM on a full-scan view: BIT_NODE_scan (range 0) or CONTROL_UNIT_scan
// with chains 14/28 (range 1), one Podem over every 7th stuck-at fault at
// backtrack limit 24, unguided. items_per_second counts targets.
void BM_PodemGenerate(benchmark::State& state) {
  const bool cu = state.range(0) != 0;
  const std::vector<int> chains =
      cu ? std::vector<int>{14, 28} : std::vector<int>{};
  const Netlist scanned = buildScannedModule(
      cu ? ldpc::buildControlUnit() : ldpc::buildBitNode(), chains);
  const ScanView view = makeScanView(scanned, chains);
  const FaultUniverse u = enumerateStuckAt(scanned);
  Podem podem(scanned, view.inputs, view.observed, 24);
  std::size_t targets = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < u.faults.size(); i += 7) {
      benchmark::DoNotOptimize(podem.generate(u.faults[i]));
      ++targets;
    }
  }
  state.SetLabel(cu ? "CONTROL_UNIT_scan" : "BIT_NODE_scan");
  state.SetItemsProcessed(static_cast<std::int64_t>(targets));
}
BENCHMARK(BM_PodemGenerate)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_AlfsrStep(benchmark::State& state) {
  Alfsr lfsr(20, 0xACE1);
  for (auto _ : state) benchmark::DoNotOptimize(lfsr.step());
}
BENCHMARK(BM_AlfsrStep);

void BM_MisrStepWide(benchmark::State& state) {
  Misr misr(16);
  std::uint64_t v = 0x123456789ABCDEFull;
  for (auto _ : state) {
    misr.stepWide(v, 55);
    v = v * 6364136223846793005ull + 1;
    benchmark::DoNotOptimize(misr.state());
  }
}
BENCHMARK(BM_MisrStepWide);

void BM_TapShiftDr(benchmark::State& state) {
  TapController tap(4);
  TapDriver driver(tap);
  driver.reset();
  driver.shiftIr(0xF, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(driver.shiftDr(0xA5A5, 16));
  }
}
BENCHMARK(BM_TapShiftDr);

}  // namespace
// main() is provided by benchmark::benchmark_main.
