// Netlists and SoCs shared by the test suites. Every builder is a pure
// function of its arguments: two calls build identical netlists, which is
// what the equivalence tests compare engines, backends and schedules on.
#ifndef COREBIST_TESTS_FIXTURES_HPP_
#define COREBIST_TESTS_FIXTURES_HPP_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/session_observer.hpp"
#include "core/session_report.hpp"
#include "core/soc.hpp"
#include "core/test_plan.hpp"
#include "netlist/builder.hpp"
#include "service/service.hpp"

namespace corebist::fixtures {

/// Random combinational DAG over `width` inputs.
inline Netlist randomComb(std::uint64_t seed, int width, int gates) {
  Netlist nl("rand");
  Builder b(nl);
  const Bus x = b.input("x", width);
  std::vector<NetId> pool(x.begin(), x.end());
  std::mt19937_64 rng(seed);
  for (int g = 0; g < gates; ++g) {
    const auto t = static_cast<GateType>(2 + rng() % 9);  // kBuf .. kMux2
    const NetId a = pool[rng() % pool.size()];
    const NetId bnet = pool[rng() % pool.size()];
    const NetId s = pool[rng() % pool.size()];
    NetId out = kNullNet;
    switch (gateArity(t)) {
      case 1:
        out = nl.addGate1(t, a);
        break;
      case 2:
        out = nl.addGate2(t, a, bnet);
        break;
      default:
        out = nl.addMux(a, bnet, s);
        break;
    }
    pool.push_back(out);
  }
  Bus outs(pool.end() - std::min<std::size_t>(8, pool.size()), pool.end());
  b.output("y", outs);
  nl.validate();
  return nl;
}

/// Random sequential circuit: a combinational core whose last nets feed a
/// state register folded back into the input pool.
inline Netlist randomSeq(std::uint64_t seed, int width, int state_bits,
                         int gates) {
  Netlist nl("rand_seq");
  Builder b(nl);
  const Bus x = b.input("x", width);
  const Bus q = b.state("q", state_bits);
  std::vector<NetId> pool(x.begin(), x.end());
  pool.insert(pool.end(), q.begin(), q.end());
  std::mt19937_64 rng(seed);
  for (int g = 0; g < gates; ++g) {
    const auto t = static_cast<GateType>(2 + rng() % 9);
    const NetId a = pool[rng() % pool.size()];
    const NetId bnet = pool[rng() % pool.size()];
    const NetId s = pool[rng() % pool.size()];
    NetId out = kNullNet;
    switch (gateArity(t)) {
      case 1:
        out = nl.addGate1(t, a);
        break;
      case 2:
        out = nl.addGate2(t, a, bnet);
        break;
      default:
        out = nl.addMux(a, bnet, s);
        break;
    }
    pool.push_back(out);
  }
  b.connect(q, Bus(pool.end() - state_bits, pool.end()));
  Bus outs(pool.end() - std::min<std::size_t>(6, pool.size()), pool.end());
  b.output("y", outs);
  nl.validate();
  return nl;
}

/// Small self-checking module; `twist` varies the structure so different
/// cores carry genuinely different logic (and different signatures).
inline Netlist makeToyModule(int twist, int width = 12) {
  Netlist nl("toy" + std::to_string(twist));
  Builder b(nl);
  const Bus x = b.input("x", width);
  const Bus q = b.state("q", width);
  b.connect(q, b.bw(GateType::kXor, x, b.shiftConst(q, 1 + twist % 3)));
  b.output("y", q);
  b.output("p", Bus{b.reduceXor(q)});
  nl.validate();
  return nl;
}

/// Mid-sized module of the two-module SoC: an adder output over a
/// shift-xor state register.
inline Netlist makeBlock(int twist, int width) {
  Netlist nl("blk" + std::to_string(twist));
  Builder b(nl);
  const Bus x = b.input("x", width);
  const Bus q = b.state("q", width);
  b.connect(q, b.bw(GateType::kXor, x, b.shiftConst(q, 1 + twist % 5)));
  b.output("y", b.add(q, x));
  b.output("p", Bus{b.reduceXor(q)});
  nl.validate();
  return nl;
}

/// `cores` wrapped cores of two blocks each, round-robin over `tams` TAMs,
/// with core cores/2 defective. With `nested`, each TAM's first core also
/// carries one nested (depth-1) core, so hierarchical routing is in play.
inline std::unique_ptr<Soc> makeTwoModuleSoc(int cores, int tams = 1,
                                             bool nested = false) {
  auto soc = std::make_unique<Soc>("two_module_soc");
  for (int t = 1; t < tams; ++t) (void)soc->addTam();
  std::vector<int> first_on_tam(static_cast<std::size_t>(tams), -1);
  for (int c = 0; c < cores; ++c) {
    auto core = std::make_unique<WrappedCore>("core" + std::to_string(c));
    core->addModule(makeBlock(2 * c, 14 + (c % 3) * 4));
    core->addModule(makeBlock(2 * c + 1, 12 + (c % 4) * 4));
    const int tam = c % tams;
    const int idx = soc->attachCore(std::move(core), tam);
    if (first_on_tam[static_cast<std::size_t>(tam)] < 0) {
      first_on_tam[static_cast<std::size_t>(tam)] = idx;
    }
  }
  if (nested) {
    for (int t = 0; t < tams; ++t) {
      auto child =
          std::make_unique<WrappedCore>("nested" + std::to_string(t));
      child->addModule(makeBlock(100 + t, 12));
      (void)soc->attachChildCore(std::move(child),
                                 first_on_tam[static_cast<std::size_t>(t)]);
    }
  }
  soc->core(cores / 2).injectDefect(0, 7, GateType::kNor);
  return soc;
}

/// Six toy cores: cores 1 and 4 defective, the rest healthy.
inline std::unique_ptr<Soc> makeToySoc(const std::string& name) {
  auto soc = std::make_unique<Soc>(name);
  for (int c = 0; c < 6; ++c) {
    auto core = std::make_unique<WrappedCore>("toy" + std::to_string(c));
    core->addModule(makeToyModule(c));
    soc->attachCore(std::move(core));
  }
  soc->core(1).injectDefect(0, 3, GateType::kXnor);
  soc->core(4).injectDefect(0, 5, GateType::kNand);
  return soc;
}

/// Mixed campaign over makeToySoc: defaults for most cores, a forced
/// timeout on core 2 (the poll budget ends long before 500 at-speed cycles
/// have been delivered) and a retried forced timeout on core 5.
inline TestPlan makeMixedPlan() {
  TestPlan plan = TestPlan{}.withPatterns(300);
  plan.addCore(0).addCore(1);
  plan.addCore(CorePlan{.core_index = 2,
                        .patterns = 500,
                        .warmup_idle = 16,
                        .poll_budget = 3,
                        .poll_idle = 8});
  plan.addCore(3).addCore(4);
  plan.addCore(CorePlan{.core_index = 5,
                        .patterns = 500,
                        .warmup_idle = 16,
                        .poll_budget = 2,
                        .poll_idle = 8,
                        .max_retries = 2});
  return plan;
}

/// Runs `plan` as the only campaign of a fresh `workers`-worker service
/// over `soc` and returns its report: a cold artifact store and a pool of
/// its own, for cases that compare pool sizes or fresh SoCs.
inline SessionReport runCampaign(Soc& soc, const TestPlan& plan,
                                 int workers = 1,
                                 SessionObserver* observer = nullptr) {
  CampaignService service(soc, CampaignServiceConfig{.workers = workers});
  return service.await(
      service.submit(plan, SubmitOptions{.observer = observer}));
}

/// The report of a one-entry campaign on `service`.
inline CoreReport testCore(CampaignService& service, const CorePlan& entry) {
  return service.await(service.submit(TestPlan{}.addCore(entry)))
      .cores.front();
}

}  // namespace corebist::fixtures

#endif  // COREBIST_TESTS_FIXTURES_HPP_
