// SoC-level test campaign (paper Fig. 1): the full case study on the
// plan-driven session layer.
//
// One SoC carries the Reconfigurable Serial LDPC decoder core (BIT_NODE +
// CHECK_NODE + CONTROL_UNIT behind one BIST engine and one P1500 wrapper)
// next to a small UDL core on a second TAM, with a nested accelerator
// core wrapped inside the LDPC core (a wrapped core containing a wrapped
// core, reached through the parent's WIR child chain). A TestPlan
// describes the campaign — pattern budgets, poll budgets, retry policy —
// and a CampaignService places the core trees onto TAM channels,
// streaming progress through a SessionObserver; the external ATE protocol
// underneath is still pure TCK/TMS/TDI bit-banging. The injected
// manufacturing defect is located down to the module from the structured
// SessionReport.
#include <cstdio>
#include <memory>

#include "bist/constraint_gen.hpp"
#include "core/soc.hpp"
#include "ldpc/gatelevel.hpp"
#include "netlist/builder.hpp"
#include "service/service.hpp"

using namespace corebist;

namespace {
Netlist makeUdlCore() {
  Netlist nl("udl");
  Builder b(nl);
  const Bus x = b.input("x", 16);
  const Bus q = b.state("q", 16);
  b.connect(q, b.bw(GateType::kXor, x, b.shiftConst(q, 3)));
  b.output("y", b.add(q, x));
  nl.validate();
  return nl;
}
}  // namespace

int main() {
  std::printf("SoC test campaign: LDPC core + UDL behind one TAP\n");
  std::printf("=================================================\n\n");

  Soc soc;

  // The case-study core with the paper's constraint generator on path_sel.
  auto ldpc_core = std::make_unique<WrappedCore>("serial_ldpc");
  const auto path_cg = std::make_shared<ScheduleConstraint>(
      4, std::vector<ScheduleConstraint::Entry>{{0x0, 10}, {0x1, 2}, {0x2, 1},
                                                {0x3, 1}, {0x4, 2}, {0x8, 1},
                                                {0xC, 1}});
  const Netlist bn = ldpc::buildBitNode();
  const Netlist cn = ldpc::buildCheckNode();
  const Netlist cu = ldpc::buildControlUnit();
  ldpc_core->addModule(bn, {{"path_sel", path_cg}});
  ldpc_core->addModule(cn, {{"path_sel", path_cg}});
  ldpc_core->addModule(cu);
  const int ldpc_idx = soc.attachCore(std::move(ldpc_core));

  // The UDL rides a TAM of its own; a nested accelerator hides inside the
  // LDPC core's wrapper (depth 1).
  const int udl_tam = soc.addTam("udl_tam");
  auto udl_core = std::make_unique<WrappedCore>("udl");
  udl_core->addModule(makeUdlCore());
  const int udl_idx = soc.attachCore(std::move(udl_core), udl_tam);

  auto accel_core = std::make_unique<WrappedCore>("nested_accel");
  accel_core->addModule(makeUdlCore());
  const int accel_idx = soc.attachChildCore(std::move(accel_core), ldpc_idx);

  std::printf("cores attached: %d over %d TAM(s), nested depth %d "
              "(TAP IR %d bits)\n",
              soc.coreCount(), soc.tamCount(),
              soc.topology(accel_idx).depth(), soc.tap().irWidth());
  for (int m = 0; m < soc.core(ldpc_idx).moduleCount(); ++m) {
    const auto& eng = soc.core(ldpc_idx).engine();
    std::printf("  ldpc module %d: %-13s case '%c', %2d in / %2d out\n", m,
                eng.module(m).name().c_str(), eng.architecturalCase(m),
                eng.module(m).portWidth(true),
                eng.module(m).portWidth(false));
  }

  // The campaign: every core, 768 patterns, on a two-worker service — the
  // two TAMs' core trees run concurrently.
  const TestPlan plan = TestPlan{}.withPatterns(768);
  StreamObserver observer;
  const SubmitOptions opts{.observer = &observer};
  CampaignService service(soc, CampaignServiceConfig{.workers = 2});

  std::printf("\n--- wafer 1: all dies healthy ---\n");
  const SessionReport wafer1 = service.await(service.submit(plan, opts));

  std::printf("\n--- wafer 2: defect injected into CHECK_NODE ---\n");
  // Pick a 2-input AND deep in the module and break it into an OR.
  GateId victim = 0;
  for (GateId g = 500; g < cn.numGates(); ++g) {
    if (cn.gates()[g].type == GateType::kAnd) {
      victim = g;
      break;
    }
  }
  soc.core(ldpc_idx).injectDefect(1, victim, GateType::kOr);
  const SessionReport wafer2 = service.await(service.submit(plan, opts));

  const CoreReport* r_ldpc = wafer2.core(ldpc_idx);
  const CoreReport* r_udl = wafer2.core(udl_idx);
  const CoreReport* r_accel = wafer2.core(accel_idx);

  std::printf("\nper-TAM accounting:\n");
  for (const TamReport& tr : wafer2.tams) {
    std::printf("  %-8s %zu core(s), %zu TCKs, utilization %.2f\n",
                tr.name.c_str(), tr.core_order.size(), tr.tap_clocks,
                tr.utilization);
  }

  std::printf("\ndiagnosis from the Output Selector read-out: ");
  for (std::size_t m = 0; m < r_ldpc->modules.size(); ++m) {
    if (!r_ldpc->modules[m].pass()) {
      std::printf("module %zu signature 0x%04X != golden 0x%04X -> the "
                  "defect is in %s\n", m, r_ldpc->modules[m].signature,
                  r_ldpc->modules[m].golden,
                  soc.core(ldpc_idx).engine().module(static_cast<int>(m))
                      .name().c_str());
    }
  }

  // An impatient plan: poll before the run can finish, few polls, one
  // retry. The report distinguishes this timeout from a bad signature.
  std::printf("\n--- wafer 2 again, impatient ATE (forced timeout) ---\n");
  TestPlan impatient;
  impatient.cores.push_back(CorePlan{.core_index = udl_idx,
                                     .patterns = 768,
                                     .warmup_idle = 32,
                                     .poll_budget = 2,
                                     .poll_idle = 16,
                                     .max_retries = 1});
  const SessionReport rushed =
      service.await(service.submit(impatient, opts));

  std::printf("\nwafer 2 campaign report (JSON):\n%s\n",
              wafer2.toJson().c_str());

  const bool ok = wafer1.pass() && !wafer2.pass() &&
                  r_ldpc->verdict == CoreVerdict::kSignatureMismatch &&
                  r_udl->verdict == CoreVerdict::kPass &&
                  r_accel->verdict == CoreVerdict::kPass &&
                  r_accel->depth == 1 && r_udl->tam == udl_tam &&
                  wafer2.tams.size() == 2 &&
                  !r_ldpc->modules[1].pass() && r_ldpc->modules[0].pass() &&
                  r_ldpc->modules[2].pass() &&
                  rushed.cores[0].verdict == CoreVerdict::kTimeout &&
                  rushed.cores[0].attempts == 2;
  std::printf("\nexpected localization (CHECK_NODE only) + nested/multi-TAM "
              "verdicts + timeout telemetry: %s\n",
              ok ? "CONFIRMED" : "NOT confirmed");
  return ok ? 0 : 1;
}
