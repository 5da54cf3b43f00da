// atpg_fullscan: Table 3's full-scan baseline. runFullScanAtpg (48 random
// blocks, backtrack limit 24, no wall-clock PODEM budget, so results are a
// pure function of the seed) and runFullScanTransition (launch-on-shift)
// on BIT_NODE_scan, CONTROL_UNIT_scan (chains 14/28) and a fixed sample of
// CHECK_NODE_scan's universe; batch grading on 2 threads.
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "atpg/atpg.hpp"
#include "case_study.hpp"
#include "fault/fault.hpp"
#include "scan/scan.hpp"
#include "workloads.hpp"

namespace corebench {

namespace {

using corebist::FullScanAtpgOptions;
using corebist::FullScanAtpgResult;

constexpr int kCnStride = 64;  // CHECK_NODE_scan: one fault in 64
// Input instances per run: passes cycle over them, so one run's median
// spans several CHECK_NODE samples and ATPG seeds instead of hanging on
// how hard one sample happens to be.
constexpr int kInstances = 7;
constexpr int kBootstrapRepeats = 3;

struct Target {
  Module kind = Module::kBitNode;
  std::vector<int> chains;
  corebist::Netlist scanned;
  corebist::ScanView view;
};

/// One input instance: its ATPG options (seed) and per-target fault lists.
struct Instance {
  FullScanAtpgOptions o;
  std::vector<std::vector<corebist::Fault>> saf;  // per target
  std::vector<std::vector<corebist::Fault>> tdf;
};

struct Setup {
  std::vector<Target> targets;  // bn, cu, cn
  std::vector<Instance> instances;
};

FullScanAtpgOptions atpgOptions(const Seeds& seeds) {
  FullScanAtpgOptions o;
  o.max_random_blocks = 48;
  o.backtrack_limit = 24;
  // No wall-clock cut-off: every outcome is a function of the seed.
  o.podem_budget_seconds = std::numeric_limits<double>::infinity();
  o.seed = seeds.atpg;
  o.num_threads = 2;
  o.grading_backend = corebist::FsimBackend::kThreaded;
  return o;
}

Setup buildSetup(std::uint64_t seed, Tracer* tr) {
  const Module kinds[] = {Module::kBitNode, Module::kControlUnit,
                          Module::kCheckNode};
  std::vector<corebist::Netlist> nets;
  {
    Scope sp(tr, "ldpc.build");
    for (const Module m : kinds) nets.push_back(buildModule(m));
  }
  Setup s;
  {
    Scope sp(tr, "scan.insert");
    for (std::size_t i = 0; i < nets.size(); ++i) {
      Target t;
      t.kind = kinds[i];
      if (t.kind == Module::kControlUnit) t.chains = {14, 28};
      t.scanned = corebist::buildScannedModule(nets[i], t.chains);
      t.view = corebist::makeScanView(t.scanned, t.chains);
      s.targets.push_back(std::move(t));
    }
  }
  Scope sp(tr, "fault.enumerate");
  std::vector<std::vector<corebist::Fault>> universes;
  for (const Target& t : s.targets) {
    universes.push_back(corebist::enumerateStuckAt(t.scanned).faults);
  }
  for (int k = 0; k < kInstances; ++k) {
    const Seeds seeds = Seeds::instance(seed, k);
    Instance inst;
    inst.o = atpgOptions(seeds);
    for (std::size_t i = 0; i < s.targets.size(); ++i) {
      inst.saf.push_back(
          s.targets[i].kind == Module::kCheckNode
              ? sampleFaults(universes[i], kCnStride, seeds.sample)
              : universes[i]);
      inst.tdf.push_back(corebist::toTransitionFaults(inst.saf.back()));
    }
    s.instances.push_back(std::move(inst));
  }
  return s;
}

/// The deterministic fields of one ATPG result.
struct Outcome {
  std::size_t total = 0;
  std::size_t detected = 0;
  std::size_t aborted = 0;
  std::size_t patterns = 0;
  std::size_t podem_calls = 0;
  std::size_t batches = 0;
  std::size_t test_cycles = 0;
  std::size_t backtracks = 0;
  bool operator==(const Outcome&) const = default;

  void add(const Outcome& o) {
    total += o.total;
    detected += o.detected;
    aborted += o.aborted;
    patterns += o.patterns;
    podem_calls += o.podem_calls;
    batches += o.batches;
    test_cycles += o.test_cycles;
    backtracks += o.backtracks;
  }
};

Outcome outcomeOf(const FullScanAtpgResult& r) {
  return Outcome{r.total_faults, r.detected,    r.aborted,
                 r.patterns,     r.podem_calls, r.batches,
                 r.test_cycles,  r.backtracks};
}

struct ModuleOutcome {
  Outcome saf;
  Outcome tdf;
  bool operator==(const ModuleOutcome&) const = default;
};

std::vector<ModuleOutcome> atpgPass(const Setup& s, const Instance& inst,
                                    Tracer* tr) {
  Scope op(tr, "op.atpg");
  std::vector<ModuleOutcome> out;
  for (std::size_t i = 0; i < s.targets.size(); ++i) {
    const Target& t = s.targets[i];
    const std::string tag = moduleTag(t.kind);
    ModuleOutcome m;
    {
      Scope sp(tr, "atpg.saf." + tag, op.id());
      m.saf = outcomeOf(
          corebist::runFullScanAtpg(t.scanned, t.view, inst.saf[i], inst.o));
    }
    {
      Scope sp(tr, "atpg.tdf." + tag, op.id());
      m.tdf = outcomeOf(corebist::runFullScanTransition(t.scanned, t.view,
                                                        inst.tdf[i], inst.o));
    }
    out.push_back(m);
  }
  return out;
}

}  // namespace

void runAtpgFullScan(const Options& opts, Report& report, OpTally& tally,
                     Tracer& tracer) {
  Tracer* const tr = opts.trace ? &tracer : nullptr;

  Setup s;
  std::vector<double> setups;
  const auto release = [&] { s = Setup{}; };
  const auto build = [&] { s = buildSetup(opts.seed, tr); };
  repeatSetup(release, build, setups);

  // First outcome of each instance; every later pass on it must repeat it.
  std::vector<std::vector<ModuleOutcome>> first(kInstances);
  HostSpeed host;
  const HostSample host0 = hostSample();
  const PassTimes times = timedPasses(
      opts.seconds, kInstances, opts.trace, tally, host,
      [&](int k, bool traced) {
        const std::vector<ModuleOutcome> got =
            atpgPass(s, s.instances[static_cast<std::size_t>(k)],
                     traced ? tr : nullptr);
        bool ok = true;
        for (const ModuleOutcome& m : got) {
          ok = ok && m.saf.detected + m.saf.aborted <= m.saf.total &&
               m.tdf.detected + m.tdf.aborted <= m.tdf.total;
        }
        std::vector<ModuleOutcome>& ref = first[static_cast<std::size_t>(k)];
        if (ref.empty()) {
          ref = got;
        } else {
          ok = ok && got == ref;
        }
        return ok;
      });
  report.note(hostWindowNote(host0, hostSample(), times.wall_seconds));
  const double rss = peakRssMb();
  repeatSetup(release, build, setups);

  // Outcomes summed over the instances that ran, per module.
  std::vector<ModuleOutcome> per_module(s.targets.size());
  std::size_t ran = 0;
  for (const std::vector<ModuleOutcome>& f : first) {
    if (f.empty()) continue;
    ++ran;
    for (std::size_t i = 0; i < f.size(); ++i) {
      per_module[i].saf.add(f[i].saf);
      per_module[i].tdf.add(f[i].tdf);
    }
  }
  if (ran == 0) return;  // every pass threw; the tally says why
  Outcome saf;
  Outcome tdf;
  for (const ModuleOutcome& m : per_module) {
    saf.add(m.saf);
    tdf.add(m.tdf);
  }
  const double per_instance = 1.0 / static_cast<double>(ran);
  const double fc_saf = percent(saf.detected, saf.total);
  const double fc_tdf = percent(tdf.detected, tdf.total);
  const double test_cycles =
      static_cast<double>(saf.test_cycles + tdf.test_cycles) * per_instance;
  const std::size_t passes = times.passes();

  report.note("atpg_fullscan: " + std::to_string(passes) +
              " ATPG passes over " + std::to_string(ran) +
              " input instances; CHECK_NODE_scan sampled 1/" +
              std::to_string(kCnStride) + "; " +
              std::to_string(setups.size()) + " set-ups");
  report.note("pass seconds (untraced, by instance): " +
              secondsList(times.untraced));
  report.note("set-up seconds: " + secondsList(setups));
  report.note("coverage by module over the instances, test cycles per "
              "instance (model vs paper Table 3 full-scan rows; CHECK_NODE "
              "is sampled, so it has no reference):");
  for (std::size_t i = 0; i < per_module.size(); ++i) {
    const ModuleOutcome& m = per_module[i];
    const Module kind = s.targets[i].kind;
    const auto cycles = [&](const Outcome& o) {
      return static_cast<double>(o.test_cycles) * per_instance;
    };
    char line[256];
    if (kind == Module::kCheckNode) {
      std::snprintf(line, sizeof line,
                    "  %s  %6zu faults  SAF %6.2f%%  TDF %6.2f%%  "
                    "%.0f + %.0f cycles  (no reference: sampled)",
                    moduleTag(kind), m.saf.total / ran,
                    percent(m.saf.detected, m.saf.total),
                    percent(m.tdf.detected, m.tdf.total), cycles(m.saf),
                    cycles(m.tdf));
    } else {
      const bool bn = kind == Module::kBitNode;
      std::snprintf(line, sizeof line,
                    "  %s  %6zu faults  SAF %6.2f%% (paper %.1f)  "
                    "TDF %6.2f%% (paper %.1f)  %.0f + %.0f cycles "
                    "(paper %ld + %ld)",
                    moduleTag(kind), m.saf.total / ran,
                    percent(m.saf.detected, m.saf.total), bn ? 98.5 : 98.6,
                    percent(m.tdf.detected, m.tdf.total), bn ? 91.2 : 91.3,
                    cycles(m.saf), cycles(m.tdf), bn ? 21248L : 16965L,
                    bn ? 39168L : 27405L);
    }
    report.note(line);
  }

  const double pass_s = meanOfMedians(times.untraced);
  reportCommon(opts, report, tally, host, median(setups), rss, pass_s,
               static_cast<double>(passes) / times.wall_seconds);
  report.workloadMetric("atpg_s", "s", pass_s);
  report.workloadMetric("atpg_fc_saf_pct", "%", fc_saf);
  report.workloadMetric("atpg_fc_tdf_pct", "%", fc_tdf);
  report.workloadMetric("atpg_test_cycles", "cycles", test_cycles);
  if (!opts.trace) return;

  // Random bootstrap only (zero PODEM budget), on instance 0: saf_s -
  // bootstrap_s is PODEM plus batch grading.
  const Instance& inst0 = s.instances.front();
  FullScanAtpgOptions boot = inst0.o;
  boot.podem_budget_seconds = 0.0;
  for (std::size_t i = 0; i < s.targets.size(); ++i) {
    const Target& t = s.targets[i];
    const std::string tag = moduleTag(t.kind);
    for (int r = 0; r < kBootstrapRepeats; ++r) {
      Scope sp(tr, "atpg.bootstrap." + tag);
      (void)corebist::runFullScanAtpg(t.scanned, t.view, inst0.saf[i], boot);
    }
    setSpanMedian(report, tracer, "atpg.saf_s." + tag, "atpg.saf." + tag);
    setSpanMedian(report, tracer, "atpg.tdf_s." + tag, "atpg.tdf." + tag);
    setSpanMedian(report, tracer, "atpg.bootstrap_s." + tag,
                  "atpg.bootstrap." + tag);
  }
  setSpanMedian(report, tracer, "ldpc.build_s", "ldpc.build");
  setSpanMedian(report, tracer, "scan.insert_s", "scan.insert");
  setSpanMedian(report, tracer, "fault.enumerate_s", "fault.enumerate");
  // Counts per pass, averaged over the instances.
  const auto perPass = [&](std::size_t v) {
    return static_cast<double>(v) * per_instance;
  };
  report.set("atpg.podem_calls", perPass(saf.podem_calls + tdf.podem_calls));
  report.set("atpg.backtracks", perPass(saf.backtracks + tdf.backtracks));
  report.set("atpg.batches", perPass(saf.batches + tdf.batches));
  report.set("atpg.patterns", perPass(saf.patterns + tdf.patterns));
  const std::size_t calls = saf.podem_calls + tdf.podem_calls;
  report.set("atpg.abort_ratio",
             calls == 0 ? 0.0
                        : static_cast<double>(saf.aborted + tdf.aborted) /
                              static_cast<double>(calls));
  report.set("atpg.fc_saf_pct", fc_saf);
  report.set("atpg.fc_tdf_pct", fc_tdf);
  report.set("atpg.test_cycles", test_cycles);
  reportTraceOverhead(report, times.untraced, times.traced);
}

}  // namespace corebench
