// Shared case-study setup for the Table/Figure benches: the three LDPC
// decoder modules hooked to the paper's BIST engine (20-bit ALFSR, one
// schedule CG on the 4-bit path_sel port of BIT_NODE and CHECK_NODE,
// 16-bit MISRs, 12-bit pattern counter).
#ifndef COREBIST_BENCH_CASE_STUDY_HPP_
#define COREBIST_BENCH_CASE_STUDY_HPP_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string_view>
#include <vector>

#include "bist/engine.hpp"
#include "ldpc/gatelevel.hpp"

namespace corebist::bench {

struct CaseStudy {
  Netlist bn = ldpc::buildBitNode();
  Netlist cn = ldpc::buildCheckNode();
  Netlist cu = ldpc::buildControlUnit();
  BistEngine engine;
  int m_bn = -1;
  int m_cn = -1;
  int m_cu = -1;
  std::shared_ptr<ScheduleConstraint> path_cg;
  std::shared_ptr<BiasedConstraint> bn_ctrl_cg;
  std::shared_ptr<BiasedConstraint> cn_ctrl_cg;

  CaseStudy() {
    // "holding selection values that maximize the used circuitry" while
    // still visiting the narrow datapath selections.
    path_cg = std::make_shared<ScheduleConstraint>(
        4, std::vector<ScheduleConstraint::Entry>{{0x0, 10},
                                                  {0x1, 2},
                                                  {0x2, 1},
                                                  {0x3, 1},
                                                  {0x4, 2},
                                                  {0x8, 1},
                                                  {0xC, 1}});
    // The ctrl ports are the other constrained inputs (paper §3.2: when the
    // reached coverage is insufficient, "redefine the Constraints
    // Generator"): start/flush/clr pulses must be rare or they keep wiping
    // the architectural state that the pseudo-random data is exercising.
    using B = BiasedConstraint::BitBias;
    // Reset-style pins (start/flush/clr) must be *pulses*, not coin flips:
    // a start every ~16 cycles never lets the accumulators reach their deep
    // bits.
    bn_ctrl_cg = std::make_shared<BiasedConstraint>(
        12,
        std::vector<B>{B::kRare6, B::kOften2, B::kFree, B::kFree, B::kRare4,
                       B::kFree, B::kFree, B::kFree, B::kFree, B::kFree,
                       B::kFree, B::kFree},
        24, 0xB17B1A5);
    cn_ctrl_cg = std::make_shared<BiasedConstraint>(
        12,
        std::vector<B>{B::kRare6, B::kOften2, B::kFree, B::kFree, B::kRare6,
                       B::kFree, B::kFree, B::kRare4, B::kFree, B::kFree,
                       B::kFree, B::kFree},
        24, 0xC47B1A5);
    m_bn = engine.attachModule(bn, {{"path_sel", path_cg},
                                    {"ctrl", bn_ctrl_cg}});
    m_cn = engine.attachModule(cn, {{"path_sel", path_cg},
                                    {"ctrl", cn_ctrl_cg}});
    // CONTROL_UNIT: its run/stop pins are constrained inputs too — random
    // starts/halts would reset the counters every other cycle.
    auto one = [](BiasedConstraint::BitBias bias, std::uint64_t seed) {
      return std::make_shared<BiasedConstraint>(
          1, std::vector<BiasedConstraint::BitBias>{bias}, 12, seed);
    };
    // Short configured phases, otherwise edge wraps / iteration bookkeeping
    // are reached a handful of times in 4096 cycles.
    // Mix of short phases (phase/iteration logic toggles often) and long
    // ones (the deep counter bits must move): maximize the used circuitry.
    auto edge_cg = std::make_shared<ScheduleConstraint>(
        10, std::vector<ScheduleConstraint::Entry>{{9, 200},
                                                   {999, 1200},
                                                   {5, 100},
                                                   {517, 800},
                                                   {17, 150},
                                                   {260, 400}});
    auto iter_cg = std::make_shared<ScheduleConstraint>(
        5, std::vector<ScheduleConstraint::Entry>{
               {1, 100}, {29, 400}, {2, 100}, {18, 312}});
    auto pulse = [](int lead, int tail) {
      return std::make_shared<ScheduleConstraint>(
          1, std::vector<ScheduleConstraint::Entry>{{0, lead}, {1, 1},
                                                    {0, tail}});
    };
    m_cu = engine.attachModule(
        cu, {{"start", pulse(1, 680)},
             {"halt", pulse(2913, 800)},
             {"clr_stats", pulse(2048, 1200)},
             {"step_en", one(BiasedConstraint::BitBias::kOften2, 0x57E)},
             {"mem_ready", one(BiasedConstraint::BitBias::kOften2, 0x33D)},
             {"edge_count", edge_cg},
             {"cfg_iters", iter_cg}});
  }

  [[nodiscard]] const Netlist& module(int m) const {
    return engine.module(m);
  }
};

class Stopwatch {
 public:
  Stopwatch() : t0_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point t0_;
};

/// True for "--quick" (smoke-test scale), false for no argument. Any other
/// command line prints the usage and exits 2, so a mistyped flag cannot
/// start a paper-scale run.
inline bool quickMode(int argc, char** argv) {
  if (argc == 1) return false;
  if (argc == 2 && std::string_view(argv[1]) == "--quick") return true;
  std::fprintf(stderr, "usage: %s [--quick]\n", argv[0]);
  std::exit(2);
}

inline void printHeader(const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("================================================================\n");
}

}  // namespace corebist::bench

#endif  // COREBIST_BENCH_CASE_STUDY_HPP_
