// Immutable, content-keyed campaign artifacts shared across campaigns.
//
// A campaign built from scratch derives the same state every time:
// structural lint of each module netlist at plan-resolve time and —
// dominating it — the golden MISR signature of every module, which runs a
// full good-machine sequential simulation per core per campaign. Both are
// a pure function of state that never changes after a core is attached to
// the SoC:
//
//   * `BistEngine::module(m)` returns the engine's OWNED reference copy of
//     the module netlist (attachModule deep-copies). Defect injection
//     (`WrappedCore::injectDefect` / `healModule`) mutates the *physical*
//     copies only, so the reference netlists — and everything derived from
//     them — are immutable for the engine's lifetime.
//   * The stimulus a module sees is fixed by the engine config (ALFSR
//     width/seed/taps, counter bits), the per-module input-source map and
//     the constraint-generator value streams; the MISR spec is fixed by the
//     config and the module's output count. All are set at attach time.
//
// ArtifactStore memoizes those products once per *module content* and
// serves them by reference to every campaign. Lookup is two-level: a
// pointer-identity fast path on `&engine.module(m)` (stable — hookups own
// their netlists behind unique_ptr), then an fnv1a-64 content key over the
// module structure, names, engine config, input map and CG value streams,
// so two cores carrying byte-identical hookups share one artifact bundle.
// Because the content key covers every input the products depend on, a
// cache hit is fingerprint-invisible by construction (pinned by
// tests/service_test.cpp).
//
// Ownership: each CampaignService owns its store by value, and a service
// must not outlive its SoC, so no store outlives the module netlists whose
// addresses its fast path keys on.
//
// Thread-safety: the store is shared by every worker of its service. The
// registry map is guarded by one store mutex; each artifact bundle carries
// its own mutex that serializes product computation, so two workers asking
// for the same uncomputed golden block each other (one computes, one
// reuses) while different modules proceed in parallel. Lock order is
// always tree-lock -> store map -> bundle — the store never calls back into
// campaign execution, so no cycle exists.
#ifndef COREBIST_SERVICE_ARTIFACTS_HPP_
#define COREBIST_SERVICE_ARTIFACTS_HPP_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "analyze/lint.hpp"
#include "core/wrapped_core.hpp"

namespace corebist {

/// Cache-economy counters. `hits` / `misses` count product requests
/// (lint, golden signature) served from vs computed into the cache;
/// `modules_built` counts distinct artifact bundles constructed and
/// `modules_shared` counts registrations that deduplicated onto an
/// existing bundle via the content key.
struct ArtifactStats {
  std::uint64_t modules_built = 0;
  std::uint64_t modules_shared = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;

  [[nodiscard]] double hitRate() const noexcept {
    const double total = static_cast<double>(hits + misses);
    return total > 0.0 ? static_cast<double>(hits) / total : 0.0;
  }
};

class ArtifactStore {
 public:
  ArtifactStore() = default;
  ArtifactStore(const ArtifactStore&) = delete;
  ArtifactStore& operator=(const ArtifactStore&) = delete;

  /// Structural lint of module `m`'s reference netlist. Reference valid for
  /// the store's lifetime.
  const LintReport& lint(const WrappedCore& core, int m);

  /// Fault-free MISR signature of module `m` after `patterns` cycles —
  /// the good-machine sequential simulation every uncached campaign pays
  /// per core. Memoized per (module content, patterns).
  std::uint16_t goldenSignature(const WrappedCore& core, int m, int patterns);

  [[nodiscard]] ArtifactStats stats() const;

 private:
  struct ModuleArtifacts {
    std::uint64_t content_key = 0;
    std::mutex mu;  // serializes product computation for this bundle
    bool lint_done = false;
    LintReport lint;
    std::map<int, std::uint16_t> goldens;  // patterns -> signature
  };

  ModuleArtifacts& bundleFor(const WrappedCore& core, int m);

  mutable std::mutex mu_;  // guards the two registry maps
  std::unordered_map<const Netlist*, std::shared_ptr<ModuleArtifacts>>
      by_identity_;
  std::unordered_map<std::uint64_t, std::shared_ptr<ModuleArtifacts>>
      by_content_;
  std::atomic<std::uint64_t> modules_built_{0};
  std::atomic<std::uint64_t> modules_shared_{0};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

}  // namespace corebist

#endif  // COREBIST_SERVICE_ARTIFACTS_HPP_
