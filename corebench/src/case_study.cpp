#include "case_study.hpp"

#include <algorithm>
#include <memory>
#include <numeric>
#include <random>

#include "bist/constraint_gen.hpp"
#include "ldpc/gatelevel.hpp"

namespace corebench {

using corebist::BiasedConstraint;
using corebist::ConstrainedPort;
using corebist::ScheduleConstraint;

std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (tag + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

namespace {

/// A nonzero value below 2^bits (LFSR seeds must not be all-zero).
std::uint64_t nonzeroBits(std::uint64_t v, int bits) {
  const std::uint64_t mask = (std::uint64_t{1} << bits) - 1;
  const std::uint64_t r = v & mask;
  return r == 0 ? 1 : r;
}

}  // namespace

Seeds Seeds::from(std::uint64_t seed) {
  Seeds s;
  s.alfsr = nonzeroBits(deriveSeed(seed, 1), 20);
  s.cg_bn = nonzeroBits(deriveSeed(seed, 2), 24);
  s.cg_cn = nonzeroBits(deriveSeed(seed, 3), 24);
  s.cg_cu_step = nonzeroBits(deriveSeed(seed, 4), 12);
  s.cg_cu_mem = nonzeroBits(deriveSeed(seed, 5), 12);
  s.atpg = deriveSeed(seed, 6);
  s.sample = deriveSeed(seed, 7);
  s.defect = deriveSeed(seed, 8);
  return s;
}

Seeds Seeds::instance(std::uint64_t seed, int k) {
  return k == 0 ? from(seed)
                : from(deriveSeed(seed, 1000 + static_cast<std::uint64_t>(k)));
}

const char* moduleTag(Module m) {
  switch (m) {
    case Module::kBitNode:
      return "bn";
    case Module::kCheckNode:
      return "cn";
    case Module::kControlUnit:
      return "cu";
  }
  return "?";
}

corebist::Netlist buildModule(Module m) {
  switch (m) {
    case Module::kBitNode:
      return corebist::ldpc::buildBitNode();
    case Module::kCheckNode:
      return corebist::ldpc::buildCheckNode();
    case Module::kControlUnit:
      return corebist::ldpc::buildControlUnit();
  }
  return corebist::Netlist{};
}

std::vector<ConstrainedPort> caseStudyConstraints(Module m,
                                                  const Seeds& seeds) {
  using B = BiasedConstraint::BitBias;
  if (m != Module::kControlUnit) {
    // Selection values that maximize the used circuitry, while still
    // visiting the narrow datapath selections; start/flush/clr are rare
    // pulses so they do not keep wiping the accumulators.
    auto path_cg = std::make_shared<ScheduleConstraint>(
        4, std::vector<ScheduleConstraint::Entry>{
               {0x0, 10}, {0x1, 2}, {0x2, 1}, {0x3, 1}, {0x4, 2}, {0x8, 1},
               {0xC, 1}});
    const bool bn = m == Module::kBitNode;
    auto ctrl_cg = std::make_shared<BiasedConstraint>(
        12,
        bn ? std::vector<B>{B::kRare6, B::kOften2, B::kFree, B::kFree,
                            B::kRare4, B::kFree, B::kFree, B::kFree,
                            B::kFree, B::kFree, B::kFree, B::kFree}
           : std::vector<B>{B::kRare6, B::kOften2, B::kFree, B::kFree,
                            B::kRare6, B::kFree, B::kFree, B::kRare4,
                            B::kFree, B::kFree, B::kFree, B::kFree},
        24, bn ? seeds.cg_bn : seeds.cg_cn);
    return {{"path_sel", path_cg}, {"ctrl", ctrl_cg}};
  }
  // CONTROL_UNIT: run/stop pins are pulses, configured phases mix short
  // and long dwells so both the phase logic and the deep counter bits move.
  auto one = [](B bias, std::uint64_t seed) {
    return std::make_shared<BiasedConstraint>(1, std::vector<B>{bias}, 12,
                                              seed);
  };
  auto pulse = [](int lead, int tail) {
    return std::make_shared<ScheduleConstraint>(
        1, std::vector<ScheduleConstraint::Entry>{{0, lead}, {1, 1},
                                                  {0, tail}});
  };
  auto edge_cg = std::make_shared<ScheduleConstraint>(
      10, std::vector<ScheduleConstraint::Entry>{
              {9, 200}, {999, 1200}, {5, 100}, {517, 800}, {17, 150},
              {260, 400}});
  auto iter_cg = std::make_shared<ScheduleConstraint>(
      5, std::vector<ScheduleConstraint::Entry>{
             {1, 100}, {29, 400}, {2, 100}, {18, 312}});
  return {{"start", pulse(1, 680)},
          {"halt", pulse(2913, 800)},
          {"clr_stats", pulse(2048, 1200)},
          {"step_en", one(B::kOften2, seeds.cg_cu_step)},
          {"mem_ready", one(B::kOften2, seeds.cg_cu_mem)},
          {"edge_count", edge_cg},
          {"cfg_iters", iter_cg}};
}

corebist::BistEngineConfig caseStudyEngineConfig(const Seeds& seeds) {
  corebist::BistEngineConfig cfg;
  cfg.lfsr_width = 20;
  cfg.lfsr_seed = seeds.alfsr;
  cfg.misr_width = 16;
  cfg.counter_bits = 12;
  return cfg;
}

std::vector<corebist::Fault> sampleFaults(
    const std::vector<corebist::Fault>& faults, int stride,
    std::uint64_t source) {
  if (stride <= 1) return faults;
  // A seeded uniform sample of fixed size, kept in enumeration order. A
  // plain every-k-th stride would alias with the module's repeated
  // sub-blocks: each offset picks the same position in every block, so the
  // sample would be all-hard or all-easy depending on the seed.
  std::vector<std::size_t> idx(faults.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::mt19937_64 rng(source);
  const std::size_t n =
      (faults.size() + static_cast<std::size_t>(stride) - 1) /
      static_cast<std::size_t>(stride);
  for (std::size_t i = 0; i < n; ++i) {
    std::uniform_int_distribution<std::size_t> pick(i, idx.size() - 1);
    std::swap(idx[i], idx[pick(rng)]);
  }
  idx.resize(n);
  std::sort(idx.begin(), idx.end());
  std::vector<corebist::Fault> out;
  out.reserve(n);
  for (const std::size_t i : idx) out.push_back(faults[i]);
  return out;
}

}  // namespace corebench
