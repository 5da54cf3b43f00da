// bist_qualify: paper section 3.2 step 2. The case-study BIST stimulus is
// graded against BIT_NODE, CONTROL_UNIT and a fixed sample of CHECK_NODE's
// stuck-at universe: output-observed SAF and TDF on ParallelFaultSim over
// SeqFaultSim (2 threads), and signature-qualified SAF through
// BistEngine::signatureCoverage on the resilient fork backend (2 workers).
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bist/engine.hpp"
#include "case_study.hpp"
#include "fault/backend.hpp"
#include "fault/fault.hpp"
#include "fault/parallel_fsim.hpp"
#include "fault/seq_fsim.hpp"
#include "workloads.hpp"

namespace corebench {

namespace {

using corebist::Fault;
using corebist::FaultSimResult;

constexpr int kCycles = 4096;     // at-speed BIST cycles (the paper's)
constexpr int kCnStride = 1024;   // CHECK_NODE: one stuck-at fault in 1024
constexpr int kWorkers = 2;       // fault-sim threads / forked workers
// Input instances per run (ALFSR and CG seeds, CHECK_NODE sample): passes
// cycle over them, so one run's median is not one stimulus's luck.
constexpr int kInstances = 2;

struct Target {
  Module kind = Module::kBitNode;
  int slot = -1;
  std::vector<Fault> saf;
  std::vector<Fault> tdf;
};

struct Setup {
  std::unique_ptr<corebist::BistEngine> engine;
  std::vector<Target> targets;  // bn, cu, cn
};

Setup buildSetup(const Seeds& seeds, Tracer* tr) {
  Setup s;
  s.engine =
      std::make_unique<corebist::BistEngine>(caseStudyEngineConfig(seeds));
  const Module kinds[] = {Module::kBitNode, Module::kControlUnit,
                          Module::kCheckNode};
  std::vector<corebist::Netlist> nets;
  {
    Scope sp(tr, "ldpc.build");
    for (const Module m : kinds) nets.push_back(buildModule(m));
  }
  for (std::size_t i = 0; i < nets.size(); ++i) {
    Target t;
    t.kind = kinds[i];
    t.slot = s.engine->attachModule(nets[i],
                                    caseStudyConstraints(kinds[i], seeds));
    s.targets.push_back(std::move(t));
  }
  Scope sp(tr, "fault.enumerate");
  for (Target& t : s.targets) {
    const auto u = corebist::enumerateStuckAt(s.engine->module(t.slot));
    t.saf = t.kind == Module::kCheckNode
                ? sampleFaults(u.faults, kCnStride, seeds.sample)
                : u.faults;
    t.tdf = corebist::toTransitionFaults(t.saf);
  }
  return s;
}

/// Seed-independent outcome of one module in one pass.
struct ModuleOutcome {
  std::size_t saf_total = 0;
  std::size_t saf_detected = 0;
  std::size_t tdf_total = 0;
  std::size_t tdf_detected = 0;
  std::size_t misr_detected = 0;  // output-observed, in the MISR run
  std::size_t misr_caught = 0;    // the signature differs
  std::size_t misr_aliased = 0;   // output-detected, signature equal
  bool operator==(const ModuleOutcome&) const = default;

  void add(const ModuleOutcome& o) {
    saf_total += o.saf_total;
    saf_detected += o.saf_detected;
    tdf_total += o.tdf_total;
    tdf_detected += o.tdf_detected;
    misr_detected += o.misr_detected;
    misr_caught += o.misr_caught;
    misr_aliased += o.misr_aliased;
  }
};

std::size_t countCaught(const FaultSimResult& r) {
  std::size_t n = 0;
  for (const char d : r.misr_detect) n += d != 0 ? 1 : 0;
  return n;
}

std::size_t countAliased(const FaultSimResult& r) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < r.first_detect.size(); ++i) {
    if (r.first_detect[i] >= 0 && i < r.misr_detect.size() &&
        r.misr_detect[i] == 0) {
      ++n;
    }
  }
  return n;
}

/// One qualification pass over the three modules.
std::vector<ModuleOutcome> qualify(const Setup& s, Tracer* tr) {
  Scope op(tr, "op.qualify");
  std::vector<ModuleOutcome> out;
  for (const Target& t : s.targets) {
    const std::string tag = moduleTag(t.kind);
    const corebist::Netlist& nl = s.engine->module(t.slot);
    std::vector<std::uint64_t> stim;
    {
      Scope sp(tr, "bist.stimulus", op.id());
      stim = s.engine->stimulus(t.slot, kCycles);
    }
    const corebist::CyclePatternSource patterns(stim,
                                                nl.primaryInputs().size());
    corebist::FaultSimOptions o;
    o.cycles = kCycles;
    ModuleOutcome m;
    {
      Scope sp(tr, "fault.seq_saf." + tag, op.id());
      corebist::ParallelFaultSim fsim(corebist::SeqFaultSim{nl},
                                      corebist::ParallelFsimOptions{kWorkers});
      const FaultSimResult r = fsim.run(t.saf, patterns, o);
      m.saf_total = r.total;
      m.saf_detected = r.detected;
    }
    {
      Scope sp(tr, "fault.seq_tdf." + tag, op.id());
      corebist::ParallelFaultSim fsim(corebist::SeqFaultSim{nl},
                                      corebist::ParallelFsimOptions{kWorkers});
      const FaultSimResult r = fsim.run(t.tdf, patterns, o);
      m.tdf_total = r.total;
      m.tdf_detected = r.detected;
    }
    {
      Scope sp(tr, "fault.misr." + tag, op.id());
      corebist::FsimBackendOptions b;
      b.backend = corebist::FsimBackend::kResilient;
      b.num_workers = kWorkers;
      const FaultSimResult r =
          s.engine->signatureCoverage(t.slot, t.saf, kCycles, b);
      m.misr_detected = r.detected;
      m.misr_caught = countCaught(r);
      m.misr_aliased = countAliased(r);
    }
    out.push_back(m);
  }
  return out;
}

}  // namespace

void runBistQualify(const Options& opts, Report& report, OpTally& tally,
                    Tracer& tracer) {
  Tracer* const tr = opts.trace ? &tracer : nullptr;

  std::vector<Setup> inst;
  std::vector<double> setups;
  const auto release = [&] { inst.clear(); };
  const auto build = [&] {
    for (int k = 0; k < kInstances; ++k) {
      inst.push_back(buildSetup(Seeds::instance(opts.seed, k), tr));
    }
  };
  repeatSetup(release, build, setups);

  // First outcome of each instance; every later pass on it must repeat it.
  std::vector<std::vector<ModuleOutcome>> firsts(kInstances);
  HostSpeed host;
  const HostSample host0 = hostSample();
  const PassTimes times = timedPasses(
      opts.seconds, kInstances, opts.trace, tally, host,
      [&](int k, bool traced) {
        const std::vector<ModuleOutcome> got =
            qualify(inst[static_cast<std::size_t>(k)], traced ? tr : nullptr);
        bool ok = true;
        for (const ModuleOutcome& m : got) {
          // The resilient MISR run sees the same output detections as the
          // threaded SAF run, and the signature catches no more than that.
          ok = ok && m.misr_detected == m.saf_detected &&
               m.misr_caught + m.misr_aliased == m.misr_detected;
        }
        std::vector<ModuleOutcome>& ref = firsts[static_cast<std::size_t>(k)];
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
  std::vector<ModuleOutcome> per_module(inst.front().targets.size());
  std::size_t ran = 0;
  for (const std::vector<ModuleOutcome>& f : firsts) {
    if (f.empty()) continue;
    ++ran;
    for (std::size_t i = 0; i < f.size(); ++i) per_module[i].add(f[i]);
  }
  if (ran == 0) return;  // every pass threw; the tally says why
  const Setup& s = inst.front();

  ModuleOutcome sum;
  for (const ModuleOutcome& m : per_module) sum.add(m);
  const double fc_saf = percent(sum.saf_detected, sum.saf_total);
  const double fc_tdf = percent(sum.tdf_detected, sum.tdf_total);
  const double fc_misr = percent(sum.misr_caught, sum.saf_total);
  const std::size_t passes = times.passes();
  const double per_instance = 1.0 / static_cast<double>(ran);

  report.note("bist_qualify: " + std::to_string(passes) +
              " qualification passes of " + std::to_string(kCycles) +
              " cycles over " + std::to_string(ran) +
              " input instances; CHECK_NODE sampled 1/" +
              std::to_string(kCnStride) + "; " +
              std::to_string(setups.size()) + " set-ups");
  report.note("pass seconds (untraced, by instance): " +
              secondsList(times.untraced));
  report.note("set-up seconds: " + secondsList(setups));
  report.note("coverage by module over the instances (model vs paper "
              "Table 3 BIST rows; CHECK_NODE is sampled, so it has no "
              "reference):");
  struct Ref {
    double saf;
    double tdf;
  };
  for (std::size_t i = 0; i < per_module.size(); ++i) {
    const ModuleOutcome& m = per_module[i];
    const Module kind = s.targets[i].kind;
    char line[256];
    const Ref ref = kind == Module::kBitNode ? Ref{97.8, 95.6}
                                             : Ref{97.5, 95.3};
    if (kind == Module::kCheckNode) {
      std::snprintf(line, sizeof line,
                    "  %s  %6zu faults  SAF %6.2f%%  TDF %6.2f%%  "
                    "MISR %6.2f%%  (no reference: sampled)",
                    moduleTag(kind), m.saf_total / ran,
                    percent(m.saf_detected, m.saf_total),
                    percent(m.tdf_detected, m.tdf_total),
                    percent(m.misr_caught, m.saf_total));
    } else {
      std::snprintf(line, sizeof line,
                    "  %s  %6zu faults  SAF %6.2f%% (paper %.1f)  "
                    "TDF %6.2f%% (paper %.1f)  MISR %6.2f%%",
                    moduleTag(kind), m.saf_total / ran,
                    percent(m.saf_detected, m.saf_total), ref.saf,
                    percent(m.tdf_detected, m.tdf_total), ref.tdf,
                    percent(m.misr_caught, m.saf_total));
    }
    report.note(line);
  }

  const double pass_s = meanOfMedians(times.untraced);
  reportCommon(opts, report, tally, host, median(setups), rss, pass_s,
               static_cast<double>(passes) / times.wall_seconds);
  report.workloadMetric("qualify_s", "s", pass_s);
  report.workloadMetric("bist_fc_saf_pct", "%", fc_saf);
  report.workloadMetric("bist_fc_tdf_pct", "%", fc_tdf);
  report.workloadMetric("bist_fc_misr_pct", "%", fc_misr);
  if (!opts.trace) return;

  setSpanMedian(report, tracer, "ldpc.build_s", "ldpc.build");
  setSpanMedian(report, tracer, "fault.enumerate_s", "fault.enumerate");
  // Three stimulus calls per pass; report the per-pass total.
  const std::vector<double> stim = tracer.durations("bist.stimulus");
  double stim_total = 0.0;
  for (const double d : stim) stim_total += d;
  const std::size_t traced_passes = sampleCount(times.traced);
  if (traced_passes > 0) {
    report.set("bist.stimulus_s",
               stim_total / static_cast<double>(traced_passes));
  }
  for (const Target& t : s.targets) {
    const std::string tag = moduleTag(t.kind);
    setSpanMedian(report, tracer, "fault.seq_saf_s." + tag,
                  "fault.seq_saf." + tag);
    setSpanMedian(report, tracer, "fault.seq_tdf_s." + tag,
                  "fault.seq_tdf." + tag);
    setSpanMedian(report, tracer, "fault.misr_s." + tag, "fault.misr." + tag);
  }
  // Counts per pass, averaged over the instances.
  report.set("fault.faults_graded",
             static_cast<double>(sum.saf_total * 2 + sum.tdf_total) *
                 per_instance);
  report.set("fault.detected",
             static_cast<double>(sum.saf_detected + sum.tdf_detected +
                                 sum.misr_detected) *
                 per_instance);
  report.set("fault.misr_aliased",
             static_cast<double>(sum.misr_aliased) * per_instance);
  report.set("bist.fc_saf_pct", fc_saf);
  report.set("bist.fc_tdf_pct", fc_tdf);
  report.set("bist.fc_misr_pct", fc_misr);
  reportTraceOverhead(report, times.untraced, times.traced);
}

}  // namespace corebench
