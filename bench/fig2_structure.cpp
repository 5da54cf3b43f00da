// Figures 1/2/5/7 are architecture diagrams; this bench audits the
// instantiated hierarchy instead: the SoC stack (ATE -> TAP -> TAM ->
// wrapper -> BIST engine -> core), the Fig. 2 engine composition (control
// unit / ALFSR + CGs / MISRs + output selector) and the Fig. 5 wrapper
// register set, all taken from the live objects.
#include <cstdio>

#include "bist/engine_hw.hpp"
#include "case_study.hpp"
#include "core/soc.hpp"
#include "p1500/wrapper_hw.hpp"
#include "service/service.hpp"

using namespace corebist;
using namespace corebist::bench;

int main() {
  printHeader("Fig. 1/2/5/7: structural audit of the assembled architecture");
  const CaseStudy cs;

  std::printf("SoC test stack (Fig. 1):\n");
  Soc soc;
  auto core = std::make_unique<WrappedCore>("serial_ldpc");
  core->addModule(cs.bn, {{"path_sel", cs.path_cg}});
  core->addModule(cs.cn, {{"path_sel", cs.path_cg}});
  core->addModule(cs.cu);
  const int idx = soc.attachCore(std::move(core));
  std::printf("  ATE (TapDriver) -> TAP controller (IR %d bits, IDCODE "
              "0x%08X)\n", soc.tap().irWidth(), soc.tap().idcode());
  std::printf("  -> TAM (%d core(s), instructions SELECT/WIR_SCAN/WDR_SCAN)\n",
              soc.tam().coreCount());
  std::printf("  -> P1500 wrapper (WIR %d, WBY 1, WCDR %d, WDR %d bits)\n",
              P1500Wrapper::kWirBits, P1500Wrapper::kWcdrBits,
              P1500Wrapper::kWdrBits);
  std::printf("  -> BIST engine -> logic core (%d modules)\n\n",
              soc.core(idx).moduleCount());

  std::printf("BIST engine composition (Fig. 2):\n");
  const auto& cfg = cs.engine.config();
  std::printf("  Control Unit : %d-bit pattern counter (up to %d patterns), "
              "2-bit result select\n", cfg.counter_bits,
              (1 << cfg.counter_bits));
  std::printf("  Pattern Gen  : %d-bit ALFSR", cfg.lfsr_width);
  std::printf(" + constraint generator %s\n", cs.path_cg->describe().c_str());
  for (int m = 0; m < cs.engine.moduleCount(); ++m) {
    const auto& nl = cs.engine.module(m);
    int alfsr_bits = 0;
    int cg_bits = 0;
    for (const auto& src : cs.engine.inputMap(m)) {
      if (src.kind == InputSourceKind::kAlfsr) {
        ++alfsr_bits;
      } else {
        ++cg_bits;
      }
    }
    std::printf("    %-13s w=%2d (ALFSR %2d + CG %d)  case '%c'  -> %d-bit "
                "MISR via XOR cascade over %d outputs\n",
                nl.name().c_str(), nl.portWidth(true), alfsr_bits, cg_bits,
                cs.engine.architecturalCase(m), cfg.misr_width,
                nl.portWidth(false));
  }

  std::printf("\nGate-level audit:\n");
  const Netlist engine_hw = buildBistEngineHw(cs.engine);
  std::printf("  engine hardware: %zu gates, %zu flops, ports:",
              engine_hw.numGates(), engine_hw.dffs().size());
  for (const auto& p : engine_hw.ports()) {
    std::printf(" %s[%zu]%s", p.name.c_str(), p.bits.size(),
                p.is_input ? "i" : "o");
  }
  const Netlist wrapper_hw = buildWrapperHw(24, 25);
  std::printf("\n  wrapper hardware: %zu gates, %zu flops (boundary cells: "
              "80)\n", wrapper_hw.numGates(), wrapper_hw.dffs().size());

  // Smoke-run the whole stack once so the audit is of a *working* assembly.
  CampaignService service(soc, CampaignServiceConfig{.workers = 1});
  const CoreReport r =
      service
          .await(service.submit(
              TestPlan{}.addCore({.core_index = idx, .patterns = 96})))
          .cores[0];
  std::printf("\nEnd-to-end session: %s\n", r.summary().c_str());
  return r.pass() ? 0 : 1;
}
