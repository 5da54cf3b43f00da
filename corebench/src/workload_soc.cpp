// soc_floor: a resident CampaignService (2 reactor workers) over a 2-TAM
// SoC: the LDPC decoder core (BIT_NODE + CHECK_NODE + CONTROL_UNIT behind
// one wrapper, with the case-study CGs), one core nested inside it, and 12
// small UDL cores built from 4 distinct IP blocks. One seeded defect is
// injected. Four testers in a closed loop, driven from one thread, each
// submit a full-die plan (every core, 1024 patterns, no coverage probe)
// and submit the next only after await returns. Set-up includes the first
// (cold) campaign.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bist/engine.hpp"
#include "case_study.hpp"
#include "core/session_observer.hpp"
#include "core/session_report.hpp"
#include "core/soc.hpp"
#include "core/test_plan.hpp"
#include "netlist/builder.hpp"
#include "service/service.hpp"
#include "workloads.hpp"

namespace corebench {

namespace {

using corebist::CoreReport;
using corebist::GateType;
using corebist::SessionReport;

constexpr int kPatterns = 1024;
constexpr int kWorkers = 2;
constexpr int kTesters = 4;
constexpr int kUdlCores = 12;
constexpr int kIpBlocks = 4;
// The service keeps a record of every campaign it ran, so its memory grows
// with the campaigns completed, and so with the host's speed. peak_rss_mb
// is read once this many campaigns have been awaited (or at the end of the
// window, if fewer ran), so that it does not.
constexpr std::size_t kRssCampaigns = 200;

/// One of the 4 distinct UDL IP blocks: a small accumulator datapath.
corebist::Netlist ipBlock(int kind) {
  const int width = 10 + 2 * kind;
  corebist::Netlist nl("ip" + std::to_string(kind));
  corebist::Builder b(nl);
  const corebist::Bus x = b.input("x", width);
  const corebist::Bus q = b.state("q", width);
  b.connect(q, b.bw(GateType::kXor, x, b.shiftConst(q, 1 + kind)));
  b.output("y", b.add(q, x));
  b.output("p", corebist::Bus{b.reduceXor(q)});
  nl.validate();
  return nl;
}

enum class CoreClass { kLdpc, kNested, kUdl };

struct Floor {
  std::unique_ptr<corebist::Soc> soc;
  // Declared after the SoC, so it is destroyed (its reactor joined) first.
  std::unique_ptr<corebist::CampaignService> service;
  std::vector<CoreClass> classes;  // per core index
  int defect_core = -1;
  int defect_module = 0;
  corebist::TestPlan plan;
  std::size_t predicted_tcks = 0;
  std::string reference;  // the cold campaign's fingerprint
};

bool isTwoInput(GateType t) {
  return t == GateType::kAnd || t == GateType::kNand || t == GateType::kOr ||
         t == GateType::kNor || t == GateType::kXor || t == GateType::kXnor;
}

/// Pick a seeded defect (UDL core, gate, new gate type) that the BIST
/// signature of `kPatterns` patterns is known to catch, and inject it.
void injectSeededDefect(Floor& f, std::uint64_t source) {
  constexpr GateType kTypes[] = {GateType::kAnd, GateType::kNand,
                                 GateType::kOr,  GateType::kNor,
                                 GateType::kXor, GateType::kXnor};
  std::vector<int> udl;
  for (std::size_t i = 0; i < f.classes.size(); ++i) {
    if (f.classes[i] == CoreClass::kUdl) udl.push_back(static_cast<int>(i));
  }
  std::uint64_t d = source;
  for (int tries = 0; tries < 1000; ++tries, d = deriveSeed(d, 99)) {
    const int core = udl[d % udl.size()];
    const corebist::BistEngine& engine = f.soc->core(core).engine();
    const corebist::Netlist& ref = engine.module(0);
    const auto g = static_cast<corebist::GateId>((d >> 8) % ref.numGates());
    const GateType old_type = ref.gate(g).type;
    const GateType new_type = kTypes[(d >> 40) % 6];
    if (!isTwoInput(old_type) || new_type == old_type) continue;
    const corebist::Netlist bad =
        corebist::withGateDefect(ref, g, new_type);
    if (engine.runAndSign(0, bad, kPatterns) ==
        engine.goldenSignature(0, kPatterns)) {
      continue;  // escapes the signature: not a usable defect site
    }
    f.soc->core(core).injectDefect(0, g, new_type);
    f.defect_core = core;
    f.defect_module = 0;
    return;
  }
  throw std::runtime_error("soc_floor: no detectable defect site found");
}

/// The cold campaign must catch the defect in exactly the injected module
/// and pass everything else.
bool coldCampaignOk(const Floor& f, const SessionReport& r) {
  if (r.cores.size() != f.classes.size()) return false;
  for (const CoreReport& c : r.cores) {
    if (c.core_index != f.defect_core) {
      if (c.verdict != corebist::CoreVerdict::kPass) return false;
      continue;
    }
    if (c.verdict != corebist::CoreVerdict::kSignatureMismatch) return false;
    for (std::size_t m = 0; m < c.modules.size(); ++m) {
      const bool injected = static_cast<int>(m) == f.defect_module;
      if (c.modules[m].pass() == injected) return false;
    }
  }
  return true;
}

std::unique_ptr<Floor> buildFloor(const Seeds& seeds, Tracer* tr,
                                  double& cold_seconds) {
  auto f = std::make_unique<Floor>();
  std::vector<corebist::Netlist> ldpc;
  {
    Scope sp(tr, "ldpc.build");
    for (const Module m : {Module::kBitNode, Module::kCheckNode,
                           Module::kControlUnit}) {
      ldpc.push_back(buildModule(m));
    }
  }
  Scope assemble(tr, "core.assemble");
  f->soc = std::make_unique<corebist::Soc>("ldpc_floor");
  (void)f->soc->addTam("tam1");
  auto decoder = std::make_unique<corebist::WrappedCore>(
      "ldpc_decoder", caseStudyEngineConfig(seeds));
  const Module kinds[] = {Module::kBitNode, Module::kCheckNode,
                          Module::kControlUnit};
  for (std::size_t i = 0; i < ldpc.size(); ++i) {
    decoder->addModule(ldpc[i], caseStudyConstraints(kinds[i], seeds));
  }
  const int root = f->soc->attachCore(std::move(decoder), 0);
  auto nested = std::make_unique<corebist::WrappedCore>("ldpc_nested");
  nested->addModule(ipBlock(0));
  (void)f->soc->attachChildCore(std::move(nested), root);
  for (int k = 0; k < kUdlCores; ++k) {
    auto udl = std::make_unique<corebist::WrappedCore>("udl" +
                                                       std::to_string(k));
    udl->addModule(ipBlock(k % kIpBlocks));
    (void)f->soc->attachCore(std::move(udl), k % 2);
  }
  f->classes.assign(static_cast<std::size_t>(f->soc->coreCount()),
                    CoreClass::kUdl);
  f->classes[static_cast<std::size_t>(root)] = CoreClass::kLdpc;
  for (int i = 0; i < f->soc->coreCount(); ++i) {
    if (f->soc->topology(i).parent == root) {
      f->classes[static_cast<std::size_t>(i)] = CoreClass::kNested;
    }
  }
  {
    Scope sp(tr, "bist.defect_site", assemble.id());
    injectSeededDefect(*f, seeds.defect);
  }

  corebist::CampaignServiceConfig cfg;
  cfg.workers = kWorkers;
  f->service = std::make_unique<corebist::CampaignService>(*f->soc, cfg);
  f->plan = corebist::TestPlan{}.withPatterns(kPatterns);

  // The cold campaign runs on an empty artifact store: lint, fault
  // universes and golden signatures are all built here.
  const double t0 = monotonicSeconds();
  SessionReport cold;
  {
    Scope sp(tr, "service.cold_campaign", assemble.id());
    cold = f->service->await(f->service->submit(f->plan));
  }
  cold_seconds = monotonicSeconds() - t0;
  {
    Scope sp(tr, "service.predict", assemble.id());
    f->predicted_tcks = f->service->predict(f->plan).predicted_total_tcks;
  }
  if (!coldCampaignOk(*f, cold)) {
    throw std::runtime_error(
        "soc_floor: the cold campaign did not catch the injected defect in "
        "exactly its module");
  }
  if (cold.total_tap_clocks != f->predicted_tcks) {
    throw std::runtime_error(
        "soc_floor: cold campaign TCKs differ from predict()");
  }
  f->reference = cold.fingerprint();
  return f;
}

/// Per-campaign observer of a traced campaign: core session spans. The
/// service serializes its callbacks and detaches it before await()
/// returns, so the load generator reads it afterwards without a lock.
class CampaignObserver final : public corebist::SessionObserver {
 public:
  explicit CampaignObserver(const Tracer& clock) : clock_(clock) {}

  void onCoreStart(int core_index, int /*attempt*/) override {
    const double t = clock_.now();
    if (first_start_ < 0.0) first_start_ = t;
    starts_.emplace_back(core_index, t);
  }
  void onCoreFinish(const CoreReport& report) override {
    const double t = clock_.now();
    for (auto it = starts_.rbegin(); it != starts_.rend(); ++it) {
      if (it->first == report.core_index) {
        sessions_.push_back(Session{report.core_index, it->second, t});
        break;
      }
    }
  }

  struct Session {
    int core = -1;
    double start = 0.0;
    double end = 0.0;
  };
  [[nodiscard]] const std::vector<Session>& sessions() const {
    return sessions_;
  }
  [[nodiscard]] double firstStart() const { return first_start_; }

 private:
  const Tracer& clock_;
  double first_start_ = -1.0;
  std::vector<std::pair<int, double>> starts_;
  std::vector<Session> sessions_;
};

struct Pending {
  corebist::CampaignHandle handle;
  bool traced = false;
  std::unique_ptr<CampaignObserver> observer;
  double submit_start = 0.0;  // tracer clock
  double submit_end = 0.0;
};

const char* className(CoreClass c) {
  switch (c) {
    case CoreClass::kLdpc:
      return "ldpc";
    case CoreClass::kNested:
      return "nested";
    case CoreClass::kUdl:
      return "udl";
  }
  return "?";
}

}  // namespace

void runSocFloor(const Options& opts, Report& report, OpTally& tally,
                 Tracer& tracer) {
  const Seeds seeds = Seeds::from(opts.seed);
  Tracer* const tr = opts.trace ? &tracer : nullptr;

  std::vector<double> colds;
  std::unique_ptr<Floor> floor;
  std::vector<double> setups;
  const auto release = [&] { floor.reset(); };
  const auto build = [&] {
    double cold = 0.0;
    floor = buildFloor(seeds, tr, cold);
    colds.push_back(cold);
  };
  repeatSetup(release, build, setups);

  // Closed loop. Traced runs trace every other campaign.
  const corebist::ArtifactStats before = floor->service->artifactStats();
  std::uint64_t seq = 0;
  std::vector<double> traced_latency;
  std::vector<double> untraced_latency;
  std::vector<double> submit_s;
  std::vector<double> queue_wait_s;
  std::vector<double> session_s[3];
  double traced_busy = 0.0;
  double traced_tcks = 0.0;
  std::size_t traced_campaigns = 0;
  std::size_t channel_failures = 0;
  std::size_t quarantined = 0;
  std::size_t die_tcks = 0;
  std::size_t tcks = 0;

  auto submit = [&] {
    auto p = std::make_shared<Pending>();
    p->traced = opts.trace && seq++ % 2 == 1;
    corebist::SubmitOptions so;
    if (p->traced) {
      p->observer = std::make_unique<CampaignObserver>(tracer);
      so.observer = p->observer.get();
    }
    p->submit_start = tracer.now();
    p->handle = floor->service->submit(floor->plan, so);
    p->submit_end = tracer.now();
    return p;
  };
  std::size_t awaited = 0;
  double rss = 0.0;
  auto await = [&](const std::shared_ptr<Pending>& p) {
    const SessionReport r = floor->service->await(p->handle);
    const double done = tracer.now();
    if (++awaited == kRssCampaigns) rss = peakRssMb();
    std::size_t lost = 0;
    for (const CoreReport& c : r.cores) {
      channel_failures += static_cast<std::size_t>(c.channel_failures);
      lost += c.verdict == corebist::CoreVerdict::kQuarantined ? 1 : 0;
    }
    quarantined += lost;
    die_tcks = r.actual_makespan_tcks;
    tcks = r.total_tap_clocks;
    // Every campaign repeats the cold one: same fingerprint (so only the
    // injected module mismatches), exactly the predicted TCKs, and no core
    // quarantined.
    const bool ok = r.fingerprint() == floor->reference &&
                    r.total_tap_clocks == floor->predicted_tcks && lost == 0;
    (p->traced ? traced_latency : untraced_latency)
        .push_back(done - p->submit_start);
    if (p->traced && ok) {
      const std::uint64_t id = p->handle.id;
      const std::int64_t span = tracer.add("service.campaign",
                                           p->submit_start, done, -1, id);
      tracer.add("service.submit", p->submit_start, p->submit_end, span, id);
      submit_s.push_back(p->submit_end - p->submit_start);
      queue_wait_s.push_back(
          std::max(0.0, p->observer->firstStart() - p->submit_end));
      for (const CampaignObserver::Session& s : p->observer->sessions()) {
        const CoreClass cls = floor->classes[static_cast<std::size_t>(s.core)];
        tracer.add(std::string("core.session.") + className(cls), s.start,
                   s.end, span, id);
        session_s[static_cast<int>(cls)].push_back(s.end - s.start);
        traced_busy += s.end - s.start;
      }
      traced_tcks += static_cast<double>(r.total_tap_clocks);
      ++traced_campaigns;
    }
    return ok;
  };
  // The loop keeps the service busy to its end, so the host is sampled
  // at both ends of it only.
  HostSpeed host;
  host.sample(kSamplesAtWindowEnds);
  const HostSample host0 = hostSample();
  const ClosedLoopResult loop = runClosedLoop(
      kTesters, opts.seconds, monotonicSeconds, submit, await);
  host.sample(kSamplesAtWindowEnds);
  tally.attempted += loop.tally.attempted;
  tally.failed += loop.tally.failed;
  for (const std::string& e : loop.tally.errors) tally.errors.push_back(e);
  const corebist::ArtifactStats after = floor->service->artifactStats();
  report.note(hostWindowNote(host0, hostSample(), loop.wall_seconds));
  if (awaited < kRssCampaigns) rss = peakRssMb();
  repeatSetup(release, build, setups);

  const double campaigns = static_cast<double>(loop.latencies.size());
  const double per_s = campaigns / loop.wall_seconds;
  const double p50 = median(loop.latencies);
  const auto p90 = tailPercentile(loop.latencies, 0.9);
  report.note("soc_floor: " + std::to_string(loop.latencies.size()) +
              " campaigns in " + std::to_string(loop.wall_seconds) + " s, " +
              std::to_string(kTesters) + " closed-loop testers, " +
              std::to_string(kWorkers) + " reactor workers, " +
              std::to_string(floor->soc->coreCount()) + " cores on " +
              std::to_string(floor->soc->tamCount()) + " TAMs, " +
              std::to_string(kPatterns) + " patterns; defect in core " +
              std::to_string(floor->defect_core) + "; " +
              std::to_string(setups.size()) + " set-ups");
  report.note("set-up seconds: " + secondsList(setups));
  if (!p90) {
    report.note("campaign_p90_s not reported: fewer than " +
                std::to_string(kMinTailSamples) +
                " campaigns lie beyond the 90th percentile");
  }
  reportCommon(opts, report, tally, host, median(setups), rss, p50, per_s);
  report.workloadMetric("campaigns_per_s", "1/s", per_s);
  report.workloadMetric("campaign_p50_s", "s", p50);
  if (p90) report.workloadMetric("campaign_p90_s", "s", *p90);
  report.workloadMetric("die_test_tcks", "TCK",
                        static_cast<double>(die_tcks));
  if (!opts.trace) return;

  setSpanMedian(report, tracer, "ldpc.build_s", "ldpc.build");
  report.set("service.cold_campaign_s", median(colds));
  if (!submit_s.empty()) report.set("service.submit_s", median(submit_s));
  if (!queue_wait_s.empty()) {
    report.set("service.queue_wait_s", median(queue_wait_s));
  }
  const CoreClass classes[] = {CoreClass::kLdpc, CoreClass::kNested,
                               CoreClass::kUdl};
  for (const CoreClass c : classes) {
    const std::vector<double>& v = session_s[static_cast<int>(c)];
    if (!v.empty()) {
      report.set(std::string("core.session_s.") + className(c), median(v));
    }
  }
  if (traced_campaigns > 0) {
    // Busy time per traced campaign, scaled to every campaign completed.
    const double busy = traced_busy / static_cast<double>(traced_campaigns) *
                        campaigns;
    report.set("service.worker_busy_frac",
               busy / (loop.wall_seconds * kWorkers));
  }
  if (traced_busy > 0.0) {
    report.set("tam.tcks_per_busy_s", traced_tcks / traced_busy);
  }
  report.set("tam.tcks_per_campaign", static_cast<double>(tcks));
  report.set("tam.die_test_tcks", static_cast<double>(die_tcks));
  report.set("service.artifact_hits",
             static_cast<double>(after.hits - before.hits));
  report.set("service.artifact_misses",
             static_cast<double>(after.misses - before.misses));
  const double lookups =
      static_cast<double>(after.hits - before.hits + after.misses -
                          before.misses);
  report.set("service.artifact_hit_rate",
             lookups > 0.0
                 ? static_cast<double>(after.hits - before.hits) / lookups
                 : 0.0);
  report.set("service.modules_shared",
             static_cast<double>(after.modules_shared));
  report.set("core.channel_failures", static_cast<double>(channel_failures));
  report.set("core.quarantined", static_cast<double>(quarantined));
  reportTraceOverhead(report, {untraced_latency}, {traced_latency});
}

}  // namespace corebench
