#include "service/artifacts.hpp"

#include <string_view>

#include "bist/engine.hpp"

namespace corebist {
namespace {

constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void mixBytes(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
}

template <typename T>
void mixPod(std::uint64_t& h, T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  mixBytes(h, &v, sizeof v);
}

void mixString(std::uint64_t& h, std::string_view s) {
  mixPod(h, static_cast<std::uint64_t>(s.size()));
  mixBytes(h, s.data(), s.size());
}

/// Content key of one engine hookup: everything the cached products depend
/// on. Netlist structure and names (lint diagnostics embed port names),
/// engine config (stimulus generation and MISR width), the per-input source
/// map, and each constraint generator's description plus its value stream
/// over the counter's reachable cycle range (capped at 4096 — the default
/// 12-bit counter capacity — so hashing stays O(patterns) once per module).
/// Two hookups with equal keys produce identical stimulus and golden
/// signatures by construction.
std::uint64_t moduleContentKey(const WrappedCore& core, int m) {
  const BistEngine& engine = core.engine();
  const Netlist& nl = engine.module(m);
  std::uint64_t h = kFnvBasis;

  mixString(h, nl.name());
  mixPod(h, static_cast<std::uint64_t>(nl.numNets()));
  mixPod(h, static_cast<std::uint64_t>(nl.gates().size()));
  for (const Gate& g : nl.gates()) {
    mixPod(h, static_cast<std::uint8_t>(g.type));
    mixPod(h, g.nin);
    mixPod(h, g.out);
    for (int i = 0; i < 3; ++i) mixPod(h, g.in[static_cast<std::size_t>(i)]);
  }
  mixPod(h, static_cast<std::uint64_t>(nl.dffs().size()));
  for (const Dff& d : nl.dffs()) {
    mixPod(h, d.d);
    mixPod(h, d.q);
  }
  for (const NetId n : nl.primaryInputs()) mixPod(h, n);
  mixPod(h, static_cast<std::uint64_t>(nl.primaryInputs().size()));
  for (const NetId n : nl.primaryOutputs()) mixPod(h, n);
  mixPod(h, static_cast<std::uint64_t>(nl.primaryOutputs().size()));
  for (const PortBus& p : nl.ports()) {
    mixString(h, p.name);
    mixPod(h, static_cast<std::uint8_t>(p.is_input ? 1 : 0));
    for (const NetId n : p.bits) mixPod(h, n);
    mixPod(h, static_cast<std::uint64_t>(p.bits.size()));
  }

  const BistEngineConfig& cfg = engine.config();
  mixPod(h, cfg.lfsr_width);
  mixPod(h, cfg.lfsr_seed);
  for (const int t : cfg.lfsr_taps) mixPod(h, t);
  mixPod(h, static_cast<std::uint64_t>(cfg.lfsr_taps.size()));
  mixPod(h, cfg.misr_width);
  mixPod(h, cfg.counter_bits);

  for (const InputSource& s : engine.inputMap(m)) {
    mixPod(h, static_cast<std::uint8_t>(s.kind));
    mixPod(h, s.index);
    mixPod(h, s.bit);
  }

  const int probe_cycles =
      cfg.counter_bits >= 12 ? 4096 : (1 << cfg.counter_bits);
  for (int cg = 0; cg < engine.constraintCount(m); ++cg) {
    const ConstraintGenerator& g = engine.constraintGenerator(m, cg);
    mixPod(h, g.width());
    mixString(h, g.describe());
    for (int c = 0; c < probe_cycles; ++c) {
      mixPod(h, g.valueAt(c));
    }
  }
  return h;
}

}  // namespace

ArtifactStore::ModuleArtifacts& ArtifactStore::bundleFor(
    const WrappedCore& core, int m) {
  const Netlist* key = &core.engine().module(m);
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = by_identity_.find(key);
    if (it != by_identity_.end()) return *it->second;
  }
  // Hash outside the registry lock — CG streams make this the slow part.
  const std::uint64_t content = moduleContentKey(core, m);
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = by_identity_.find(key);
  if (it != by_identity_.end()) return *it->second;  // lost a benign race
  std::shared_ptr<ModuleArtifacts> bundle;
  const auto cit = by_content_.find(content);
  if (cit != by_content_.end()) {
    bundle = cit->second;
    modules_shared_.fetch_add(1, std::memory_order_relaxed);
  } else {
    bundle = std::make_shared<ModuleArtifacts>();
    bundle->content_key = content;
    by_content_.emplace(content, bundle);
    modules_built_.fetch_add(1, std::memory_order_relaxed);
  }
  by_identity_.emplace(key, bundle);
  return *bundle;
}

const LintReport& ArtifactStore::lint(const WrappedCore& core, int m) {
  ModuleArtifacts& a = bundleFor(core, m);
  const std::lock_guard<std::mutex> lock(a.mu);
  if (a.lint_done) {
    hits_.fetch_add(1, std::memory_order_relaxed);
  } else {
    a.lint = lintNetlist(core.engine().module(m));
    a.lint_done = true;
    misses_.fetch_add(1, std::memory_order_relaxed);
  }
  return a.lint;
}

std::uint16_t ArtifactStore::goldenSignature(const WrappedCore& core, int m,
                                             int patterns) {
  ModuleArtifacts& a = bundleFor(core, m);
  const std::lock_guard<std::mutex> lock(a.mu);
  const auto it = a.goldens.find(patterns);
  if (it != a.goldens.end()) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second;
  }
  const std::uint16_t sig = core.goldenSignature(m, patterns);
  a.goldens.emplace(patterns, sig);
  misses_.fetch_add(1, std::memory_order_relaxed);
  return sig;
}

ArtifactStats ArtifactStore::stats() const {
  ArtifactStats s;
  s.modules_built = modules_built_.load(std::memory_order_relaxed);
  s.modules_shared = modules_shared_.load(std::memory_order_relaxed);
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace corebist
