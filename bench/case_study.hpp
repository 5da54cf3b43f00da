// Shared case-study setup for the Table/Figure benches: the three LDPC
// decoder modules hooked to the paper's BIST engine (20-bit ALFSR, one
// schedule CG on the 4-bit path_sel port of BIT_NODE and CHECK_NODE,
// 16-bit MISRs, 12-bit pattern counter).
#ifndef COREBIST_BENCH_CASE_STUDY_HPP_
#define COREBIST_BENCH_CASE_STUDY_HPP_

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bist/engine.hpp"
#include "fault/lane.hpp"
#include "ldpc/gatelevel.hpp"
#include "util/json.hpp"

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

/// Median (middle of the sorted times) and min of `repeats` timed runs of
/// `fn`. Single-shot timings on shared runners are noise, not measurements;
/// every BENCH_*.json row goes through this.
struct Timing {
  double median = 0.0;
  double min = 0.0;
};

template <typename Fn>
Timing timeRepeats(int repeats, Fn&& fn) {
  std::vector<double> secs;
  secs.reserve(static_cast<std::size_t>(repeats));
  for (int r = 0; r < repeats; ++r) {
    Stopwatch sw;
    fn();
    secs.push_back(sw.seconds());
  }
  std::sort(secs.begin(), secs.end());
  return Timing{secs[secs.size() / 2], secs.front()};
}

/// True when "--quick" is on the command line (smoke-test scale).
inline bool quickMode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") return true;
  }
  return false;
}

/// Opens a BENCH_*.json document with the header fields every bench file
/// shares; the caller adds its own fields and closes the object.
inline JsonWriter benchJson(std::string_view workload, bool quick,
                            int repeats) {
  JsonWriter w;
  w.beginObject()
      .field("workload", workload)
      .field("quick", quick)
      .field("hardware_concurrency", std::thread::hardware_concurrency())
      .field("repeats", repeats)
      .field("lane_words_default", kLaneWords)
      .field("lane_backend", kLaneBackend);
  return w;
}

/// Writes the finished document and a final newline to `path` in the
/// current directory; on failure prints why and returns false.
inline bool writeBenchJson(const char* path, const JsonWriter& w) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return false;
  }
  const bool wrote = std::fputs(w.str().c_str(), f) >= 0 &&
                     std::fputc('\n', f) != EOF;
  if (std::fclose(f) != 0 || !wrote) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return false;
  }
  return true;
}

inline void printHeader(const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("================================================================\n");
}

}  // namespace corebist::bench

#endif  // COREBIST_BENCH_CASE_STUDY_HPP_
