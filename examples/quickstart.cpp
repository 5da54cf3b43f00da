// Quickstart: wrap a small core with the P1500 BIST architecture and test
// it through the 1149.1 TAP, end to end, in ~40 lines of user code.
//
//   1. describe your core as a gate-level netlist (Builder),
//   2. put it in a WrappedCore (BIST engine + P1500 wrapper),
//   3. attach it to a Soc (TAP + TAM) and test it with a CampaignService.
#include <cstdio>

#include "core/soc.hpp"
#include "netlist/builder.hpp"
#include "service/service.hpp"

using namespace corebist;

namespace {
/// An 8-bit multiply-accumulate core: y += a * b (shift-add), typical small
/// logic core a SoC integrator might buy as IP.
Netlist makeMacCore() {
  Netlist nl("mac8");
  Builder b(nl);
  const Bus a = b.input("a", 8);
  const Bus bb = b.input("b", 8);
  const Bus clr = b.input("clr", 1);
  const Bus acc = b.state("acc", 16);
  // Shift-add partial products.
  Bus sum = b.constant(16, 0);
  for (int i = 0; i < 8; ++i) {
    Bus pp;
    for (int k = 0; k < i; ++k) pp.push_back(b.lo());
    for (int k = 0; k + i < 16; ++k) {
      pp.push_back(k < 8 ? b.and2(a[static_cast<std::size_t>(k)],
                                  bb[static_cast<std::size_t>(i)])
                         : b.lo());
    }
    sum = b.add(sum, pp);
  }
  b.connectEnClr(acc, b.add(acc, sum), b.hi(), clr[0]);
  b.output("y", acc);
  b.output("zero", Bus{b.eqConst(acc, 0)});
  nl.validate();
  return nl;
}
}  // namespace

int main() {
  std::printf("CoreBIST quickstart\n===================\n\n");

  // 1. The core.
  const Netlist core_nl = makeMacCore();
  std::printf("core: %s, %zu gates, %zu flops, %d in / %d out bits\n",
              core_nl.name().c_str(), core_nl.numGates(),
              core_nl.dffs().size(), core_nl.portWidth(true),
              core_nl.portWidth(false));

  // 2. BIST + P1500 wrapper. No constraints needed: every input is free.
  auto wrapped = std::make_unique<WrappedCore>("mac8");
  wrapped->addModule(core_nl);

  // 3. SoC + session: program 1024 patterns, run at speed, read signatures.
  Soc soc;
  const int idx = soc.attachCore(std::move(wrapped));
  CampaignService service(soc, CampaignServiceConfig{.workers = 1});
  const TestPlan plan =
      TestPlan{}.addCore({.core_index = idx, .patterns = 1024});
  const CoreReport healthy = service.await(service.submit(plan)).cores[0];
  std::printf("\nhealthy run : %s\n", healthy.summary().c_str());

  // A manufacturing defect flips one gate; the signature catches it.
  soc.core(idx).injectDefect(0, /*gate=*/42, GateType::kNor);
  const CoreReport defective = service.await(service.submit(plan)).cores[0];
  std::printf("defective   : %s\n", defective.summary().c_str());

  std::printf("\nverdicts: healthy=%s defective=%s\n",
              healthy.pass() ? "PASS" : "FAIL",
              defective.pass() ? "PASS" : "FAIL");
  return healthy.pass() && !defective.pass() ? 0 : 1;
}
