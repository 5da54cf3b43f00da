// System-level integration: the complete case study through every layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "bist/engine_hw.hpp"
#include "core/soc.hpp"
#include "fixtures.hpp"
#include "ldpc/gatelevel.hpp"
#include "p1500/wrapper_hw.hpp"
#include "scan/scan.hpp"
#include "service/service.hpp"
#include "sim/seq_sim.hpp"
#include "synth/area.hpp"
#include "synth/sta.hpp"

namespace corebist {
namespace {

TEST(Integration, LdpcBitNodeFullSessionWithDefectLocalization) {
  Soc soc;
  auto core = std::make_unique<WrappedCore>("ldpc_bn");
  const Netlist bn = ldpc::buildBitNode();
  core->addModule(bn);
  const int idx = soc.attachCore(std::move(core));
  CampaignService service(soc, CampaignServiceConfig{.workers = 1});
  const CorePlan entry{.core_index = idx, .patterns = 400};

  const CoreReport healthy = fixtures::testCore(service, entry);
  EXPECT_EQ(healthy.verdict, CoreVerdict::kPass) << healthy.summary();

  // Break an AND gate somewhere in the accumulator datapath.
  GateId victim = 0;
  for (GateId g = 50; g < bn.numGates(); ++g) {
    if (bn.gates()[g].type == GateType::kAnd) {
      victim = g;
      break;
    }
  }
  soc.core(idx).injectDefect(0, victim, GateType::kXor);
  const CoreReport defective = fixtures::testCore(service, entry);
  EXPECT_EQ(defective.verdict, CoreVerdict::kSignatureMismatch)
      << defective.summary();
  EXPECT_TRUE(defective.end_test_seen);
}

TEST(Integration, WrapperVariantsPreserveFunction) {
  // The boundary-wrapped module in functional mode behaves exactly like the
  // bare module (the wrapper is transparent when test_mode = 0).
  const Netlist cu = ldpc::buildControlUnit();
  const Netlist wrapped = buildBoundaryWrappedModule(cu);
  SeqSim bare(cu);
  SeqSim wrap(wrapped);
  bare.reset();
  wrap.reset();
  const Bus tm = wrapped.findPort("wrp_test_mode")->bits;
  std::mt19937_64 rng(404);
  for (int cycle = 0; cycle < 200; ++cycle) {
    const std::uint64_t w = rng();
    for (std::size_t j = 0; j < cu.primaryInputs().size(); ++j) {
      bare.comb().set(cu.primaryInputs()[j], broadcast(((w >> j) & 1u) != 0));
    }
    wrap.comb().setBusBroadcast(tm, 0);
    for (const PortBus& p : cu.ports()) {
      if (!p.is_input) continue;
      wrap.comb().setBusBroadcast(wrapped.findPort(p.name)->bits, 0);
    }
    // Drive by port to keep bit order identical.
    for (const PortBus& p : cu.ports()) {
      if (!p.is_input) continue;
      std::uint64_t v = 0;
      for (std::size_t i = 0; i < p.bits.size(); ++i) {
        // Find the PI index of this bit in the bare module.
        for (std::size_t j = 0; j < cu.primaryInputs().size(); ++j) {
          if (cu.primaryInputs()[j] == p.bits[i]) {
            v |= ((w >> j) & 1u) << i;
            break;
          }
        }
      }
      wrap.comb().setBusBroadcast(wrapped.findPort(p.name)->bits, v);
    }
    bare.evalComb();
    wrap.evalComb();
    for (const PortBus& p : cu.ports()) {
      if (p.is_input) continue;
      std::uint64_t vb = 0;
      for (std::size_t i = 0; i < p.bits.size(); ++i) {
        vb |= (bare.comb().get(p.bits[i]) & 1u) << i;
      }
      EXPECT_EQ(wrap.comb().getBusLane(wrapped.findPort(p.name)->bits, 0), vb)
          << p.name << " cycle " << cycle;
    }
    bare.clockEdge();
    wrap.clockEdge();
  }
}

TEST(Integration, ScannedModuleFunctionalModeMatchesOriginal) {
  const Netlist cu = ldpc::buildControlUnit();
  const Netlist scanned = buildScannedModule(cu, {14, 28});
  SeqSim bare(cu);
  SeqSim scan(scanned);
  bare.reset();
  scan.reset();
  std::mt19937_64 rng(7);
  scan.comb().setBusBroadcast(scanned.findPort("scan_en")->bits, 0);
  scan.comb().setBusBroadcast(scanned.findPort("scan_in_0")->bits, 0);
  scan.comb().setBusBroadcast(scanned.findPort("scan_in_1")->bits, 0);
  for (int cycle = 0; cycle < 300; ++cycle) {
    const std::uint64_t w = rng();
    for (std::size_t j = 0; j < cu.primaryInputs().size(); ++j) {
      bare.comb().set(cu.primaryInputs()[j], broadcast(((w >> j) & 1u) != 0));
      scan.comb().set(scanned.primaryInputs()[j + 3],  // after scan pins
                      broadcast(((w >> j) & 1u) != 0));
    }
    bare.evalComb();
    scan.evalComb();
    bare.clockEdge();
    scan.clockEdge();
  }
  // Compare all original POs after the run.
  for (std::size_t i = 0; i < cu.primaryOutputs().size(); ++i) {
    bare.evalComb();
    scan.evalComb();
    EXPECT_EQ(scan.comb().get(scanned.primaryOutputs()[i]) & 1u,
              bare.comb().get(cu.primaryOutputs()[i]) & 1u);
  }
}

TEST(Integration, AreaAndTimingOfFullCaseStudyAreSane) {
  const TechLib lib = TechLib::generic130nm();
  const Netlist bn = ldpc::buildBitNode();
  const Netlist cn = ldpc::buildCheckNode();
  const Netlist cu = ldpc::buildControlUnit();
  const double core_area = reportArea(bn, lib).total_um2 +
                           reportArea(cn, lib).total_um2 +
                           reportArea(cu, lib).total_um2;
  // Within a factor 1.25 of the paper's 165,818 um^2.
  EXPECT_GT(core_area, 165818.0 / 1.25);
  EXPECT_LT(core_area, 165818.0 * 1.25);
  // The slowest module sets the core clock near the paper's 438.6 MHz.
  const double fmax = std::min({analyzeTiming(bn, lib).fmax_mhz,
                                analyzeTiming(cn, lib).fmax_mhz,
                                analyzeTiming(cu, lib).fmax_mhz});
  EXPECT_GT(fmax, 438.6 * 0.8);
  EXPECT_LT(fmax, 438.6 * 1.2);
}

TEST(Integration, EngineHardwareAreaBelowCoreArea) {
  const TechLib lib = TechLib::generic130nm();
  BistEngine engine;
  engine.attachModule(ldpc::buildBitNode());
  engine.attachModule(ldpc::buildControlUnit());
  const Netlist hw = buildBistEngineHw(engine);
  const Netlist wrap = buildWrapperHw(24, 25);
  const double dft = reportArea(hw, lib).total_um2 +
                     reportArea(wrap, lib).total_um2;
  const double core = reportArea(engine.module(0), lib).total_um2 +
                      reportArea(engine.module(1), lib).total_um2;
  // DfT logic is a modest fraction of even this 2-module core.
  EXPECT_LT(dft, core * 1.5);
  EXPECT_GT(dft, core * 0.05);
}

}  // namespace
}  // namespace corebist
