// SoC session-layer throughput: serial vs sharded test campaigns on the
// SocTestScheduler. Emits BENCH_soc.json (current directory) so the
// cores/sec trajectory is tracked from PR to PR alongside BENCH_fsim.json.
// Every row is the median (and min) of `repeats` runs: single-shot timings
// on shared/single-core runners produced nonsense speedup ratios.
//
// The workload is a many-core SoC of mid-sized wrapped cores (two modules
// each); every campaign runs the full bit-banged protocol — TAP reset, TAM
// select, WCDR programming, at-speed run, WDR signature upload — plus the
// golden-signature computation, which is what sharding actually overlaps.
// Before timing anything the bench proves the sharded fingerprints equal
// the serial reference, so the numbers are only reported for campaigns
// that are byte-identical.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "case_study.hpp"
#include "core/scheduler.hpp"
#include "core/session_report.hpp"
#include "core/soc.hpp"
#include "netlist/builder.hpp"
#include "service/service.hpp"

using namespace corebist;
using namespace corebist::bench;

namespace {

Netlist makeBlock(int twist, int width) {
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

std::unique_ptr<Soc> makeSoc(int cores) {
  auto soc = std::make_unique<Soc>("bench_soc");
  for (int c = 0; c < cores; ++c) {
    auto core = std::make_unique<WrappedCore>("core" + std::to_string(c));
    core->addModule(makeBlock(2 * c, 14 + (c % 3) * 4));
    core->addModule(makeBlock(2 * c + 1, 12 + (c % 4) * 4));
    soc->attachCore(std::move(core));
  }
  // One defective die keeps the mismatch path in the measured loop.
  soc->core(cores / 2).injectDefect(0, 7, GateType::kNor);
  return soc;
}

/// Multi-TAM variant: the same top-level workload spread round-robin over
/// `tams` TAMs, plus one nested (depth-1) core under each TAM's first
/// top-level core so hierarchical routing stays in the measured loop.
std::unique_ptr<Soc> makeMultiTamSoc(int cores, int tams) {
  auto soc = std::make_unique<Soc>("bench_soc_t" + std::to_string(tams));
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
  for (int t = 0; t < tams; ++t) {
    auto nested =
        std::make_unique<WrappedCore>("nested" + std::to_string(t));
    nested->addModule(makeBlock(100 + t, 12));
    (void)soc->attachChildCore(std::move(nested),
                               first_on_tam[static_cast<std::size_t>(t)]);
  }
  soc->core(cores / 2).injectDefect(0, 7, GateType::kNor);
  return soc;
}

/// Placement-sweep topology: `cores` flat wrapped cores round-robin over
/// `tams` TAMs. Heterogeneity comes from the *plan* (ascending per-core
/// pattern budgets), which is adversarial for the plan-order greedy walk
/// and exactly what LPT placement exists to fix.
std::unique_ptr<Soc> makePlacementSoc(int cores, int tams) {
  auto soc = std::make_unique<Soc>("bench_soc_place");
  for (int t = 1; t < tams; ++t) (void)soc->addTam();
  for (int c = 0; c < cores; ++c) {
    auto core = std::make_unique<WrappedCore>("core" + std::to_string(c));
    core->addModule(makeBlock(2 * c, 14 + (c % 3) * 4));
    core->addModule(makeBlock(2 * c + 1, 12 + (c % 4) * 4));
    (void)soc->attachCore(std::move(core), c % tams);
  }
  soc->core(cores / 2).injectDefect(0, 7, GateType::kNor);
  return soc;
}

/// Max - min predicted channel load within each TAM, summed over TAMs: the
/// deterministic imbalance the placement pass minimizes (utilization is the
/// wall-clock echo of the same quantity, but noisy).
std::size_t predictedSpread(const PlanForecast& f) {
  std::size_t spread = 0;
  for (const TamForecast& tf : f.tams) {
    std::size_t lo = SIZE_MAX;
    std::size_t hi = 0;
    for (const ChannelLoad& cl : tf.channel_loads) {
      lo = std::min(lo, cl.predicted_tcks);
      hi = std::max(hi, cl.predicted_tcks);
    }
    if (hi > lo) spread += hi - lo;
  }
  return spread;
}

struct PlacementRow {
  PlacementPolicy policy = PlacementPolicy::kPlanOrder;
  double seconds_median = 0.0;
  double seconds_min = 0.0;
  PlanForecast forecast;
  SessionReport report;  // last run (actual makespan + utilization)
};

struct TamSweepRow {
  int tams = 1;
  double seconds_median = 0.0;
  double seconds_min = 0.0;
  SessionReport report;  // last run (per-TAM utilization snapshot)
};

struct Measurement {
  int threads = 1;
  double seconds_median = 0.0;
  double seconds_min = 0.0;
  int cores = 0;
  std::size_t tap_clocks = 0;
  [[nodiscard]] double coresPerSec() const {
    return seconds_median > 0 ? static_cast<double>(cores) / seconds_median
                              : 0.0;
  }
};

}  // namespace

int main(int argc, char** argv) {
  const bool quick = quickMode(argc, argv);
  printHeader("SoC session-layer throughput (BENCH_soc.json)");

  const int cores = quick ? 6 : 12;
  const int patterns = quick ? 256 : 1024;
  const int repeats = quick ? 3 : 5;
  auto soc = makeSoc(cores);
  SocTestScheduler scheduler(*soc);

  std::printf("%d cores x %d patterns, serial vs sharded campaigns\n\n",
              cores, patterns);

  std::string reference;
  std::vector<Measurement> rows;
  for (const int threads : {1, 2, 4, 8}) {
    const TestPlan plan =
        TestPlan{}.withPatterns(patterns).withThreads(threads);
    bool diverged = false;
    SessionReport report;
    const Timing t = timeRepeats(repeats, [&] {
      report = scheduler.run(plan);
      if (reference.empty()) {
        reference = report.fingerprint();
      } else if (report.fingerprint() != reference) {
        diverged = true;
      }
    });
    if (diverged) {
      std::fprintf(stderr,
                   "FATAL: %d-shard campaign diverged from the serial "
                   "reference\n", threads);
      return 1;
    }
    Measurement m{threads, t.median, t.min, cores,
                  report.total_tap_clocks};
    rows.push_back(m);
    std::printf("  %d shard(s)  %7.3fs med (%7.3fs min)  %7.2f cores/s  "
                "%10zu TCKs  %s\n",
                m.threads, m.seconds_median, m.seconds_min, m.coresPerSec(),
                m.tap_clocks,
                threads == 1 ? "(serial reference)" : "fingerprint OK");
  }

  double serial_s = 0.0;
  double par4_s = 0.0;
  for (const Measurement& m : rows) {
    if (m.threads == 1) serial_s = m.seconds_median;
    if (m.threads == 4) par4_s = m.seconds_median;
  }
  const double speedup4 = par4_s > 0 ? serial_s / par4_s : 0.0;

  // TAM sweep: the same workload over 1/2/4 TAMs (plus one nested core per
  // TAM), 4 worker threads, per-TAM utilization recorded. Fingerprints are
  // checked like the shard sweep: within each topology the threaded run
  // must equal that topology's serial reference byte for byte.
  std::printf("\nTAM sweep (%d cores + nested, 4 threads)\n", cores);
  std::vector<TamSweepRow> tam_rows;
  for (const int tams : {1, 2, 4}) {
    auto tam_soc = makeMultiTamSoc(cores, tams);
    SocTestScheduler tam_scheduler(*tam_soc);
    const std::string tam_reference =
        tam_scheduler.run(TestPlan{}.withPatterns(patterns).withThreads(1))
            .fingerprint();
    const TestPlan tam_plan =
        TestPlan{}.withPatterns(patterns).withThreads(4);
    TamSweepRow row;
    row.tams = tams;
    bool diverged = false;
    const Timing t = timeRepeats(repeats, [&] {
      row.report = tam_scheduler.run(tam_plan);
      if (row.report.fingerprint() != tam_reference) diverged = true;
    });
    if (diverged) {
      std::fprintf(stderr,
                   "FATAL: %d-TAM campaign diverged from its serial "
                   "reference\n", tams);
      return 1;
    }
    row.seconds_median = t.median;
    row.seconds_min = t.min;
    std::printf("  %d TAM(s)  %7.3fs med (%7.3fs min)  fingerprint OK\n",
                tams, row.seconds_median, row.seconds_min);
    for (const TamReport& tr : row.report.tams) {
      std::printf("    %-8s %2zu core(s)  %10zu TCKs  util %.2f on %d "
                  "channel(s)\n",
                  tr.name.c_str(), tr.core_order.size(), tr.tap_clocks,
                  tr.utilization, tr.channels);
    }
    tam_rows.push_back(std::move(row));
  }

  // Placement sweep: 16 flat cores over 4 TAMs, 2 channels per TAM, with
  // per-core pattern budgets ascending within each TAM — the adversarial
  // case for the plan-order greedy walk. kPlanOrder vs kMakespan are run
  // on the same SoC state sequence; outcomes must fingerprint identically
  // (placement moves work between channels, never changes results), and
  // kMakespan must strictly shrink the predicted makespan here while never
  // widening the predicted channel-load spread.
  const int place_cores = 16;
  const int place_tams = 4;
  const int place_base = quick ? 64 : 256;
  std::printf("\nplacement sweep (%d cores / %d TAMs, 2 channels each, "
              "%d..%d patterns)\n",
              place_cores, place_tams, place_base,
              place_base * (place_cores / place_tams));
  TestPlan place_plan = TestPlan{}.withThreads(8).withChannelsPerTam(2);
  for (int c = 0; c < place_cores; ++c) {
    place_plan.addCore(CorePlan{
        .core_index = c,
        .patterns = place_base * (1 + c / place_tams)});
  }
  std::vector<PlacementRow> place_rows;
  std::string place_reference;
  {
    auto ref_soc = makePlacementSoc(place_cores, place_tams);
    SocTestScheduler ref_scheduler(*ref_soc);
    TestPlan serial = place_plan;
    place_reference = ref_scheduler.run(serial.withThreads(1)).fingerprint();
  }
  for (const PlacementPolicy policy :
       {PlacementPolicy::kPlanOrder, PlacementPolicy::kMakespan}) {
    auto place_soc = makePlacementSoc(place_cores, place_tams);
    SocTestScheduler place_scheduler(*place_soc);
    TestPlan plan = place_plan;
    plan.withPlacement(policy);
    PlacementRow row;
    row.policy = policy;
    row.forecast = place_scheduler.predict(plan);
    bool diverged = false;
    const Timing t = timeRepeats(repeats, [&] {
      row.report = place_scheduler.run(plan);
      if (row.report.fingerprint() != place_reference) diverged = true;
    });
    if (diverged) {
      std::fprintf(stderr,
                   "FATAL: %s placement diverged from the serial reference\n",
                   std::string(placementPolicyName(policy)).c_str());
      return 1;
    }
    row.seconds_median = t.median;
    row.seconds_min = t.min;
    std::printf("  %-10s %7.3fs med  predicted makespan %8zu TCKs  "
                "actual %8zu TCKs  spread %6zu TCKs\n",
                std::string(placementPolicyName(policy)).c_str(),
                row.seconds_median, row.forecast.predicted_makespan_tcks,
                row.report.actual_makespan_tcks,
                predictedSpread(row.forecast));
    place_rows.push_back(std::move(row));
  }
  {
    const PlacementRow& po = place_rows[0];
    const PlacementRow& mk = place_rows[1];
    if (mk.forecast.predicted_makespan_tcks >=
        po.forecast.predicted_makespan_tcks) {
      std::fprintf(stderr,
                   "FATAL: makespan placement did not reduce the predicted "
                   "makespan (%zu vs %zu TCKs)\n",
                   mk.forecast.predicted_makespan_tcks,
                   po.forecast.predicted_makespan_tcks);
      return 1;
    }
    if (predictedSpread(mk.forecast) > predictedSpread(po.forecast)) {
      std::fprintf(stderr,
                   "FATAL: makespan placement widened the predicted "
                   "channel-load spread (%zu vs %zu TCKs)\n",
                   predictedSpread(mk.forecast), predictedSpread(po.forecast));
      return 1;
    }
    for (std::size_t t = 0; t < mk.forecast.tams.size(); ++t) {
      if (mk.forecast.tams[t].predicted_makespan_tcks >
          po.forecast.tams[t].predicted_makespan_tcks) {
        std::fprintf(stderr,
                     "FATAL: makespan placement predicts worse than plan "
                     "order on TAM %d\n", mk.forecast.tams[t].tam_index);
        return 1;
      }
    }
  }

  // Service sweep: the same campaign submitted M times, one-shot (a fresh
  // SocTestScheduler per campaign — every campaign rebuilds lint, fault
  // universes, golden signatures) vs resident (one CampaignService, two
  // workers, shared artifact store). Hard gates: every report fingerprints
  // equal to the serial reference, the resident store actually got cache
  // hits, and the resident batch beats the one-shot batch.
  const int service_campaigns = quick ? 4 : 8;
  std::printf("\nservice sweep (%d campaigns, one-shot vs resident, "
              "2 workers)\n", service_campaigns);
  const TestPlan service_plan =
      TestPlan{}.withPatterns(patterns).withThreads(2);
  bool service_diverged = false;
  const Timing oneshot_t = timeRepeats(repeats, [&] {
    for (int i = 0; i < service_campaigns; ++i) {
      SocTestScheduler oneshot(*soc);
      if (oneshot.run(service_plan).fingerprint() != reference) {
        service_diverged = true;
      }
    }
  });
  CampaignServiceConfig service_cfg;
  service_cfg.workers = 2;
  CampaignService service(*soc, service_cfg);
  const Timing resident_t = timeRepeats(repeats, [&] {
    std::vector<CampaignHandle> handles;
    handles.reserve(static_cast<std::size_t>(service_campaigns));
    for (int i = 0; i < service_campaigns; ++i) {
      handles.push_back(service.submit(service_plan));
    }
    for (const CampaignHandle h : handles) {
      if (service.await(h).fingerprint() != reference) {
        service_diverged = true;
      }
    }
  });
  if (service_diverged) {
    std::fprintf(stderr,
                 "FATAL: a service-sweep campaign diverged from the serial "
                 "reference\n");
    return 1;
  }
  const ArtifactStats service_stats = service.artifactStats();
  if (!(service_stats.hitRate() > 0.0)) {
    std::fprintf(stderr,
                 "FATAL: resident service recorded no artifact cache hits\n");
    return 1;
  }
  if (resident_t.median >= oneshot_t.median) {
    std::fprintf(stderr,
                 "FATAL: resident service (%0.3fs) did not beat one-shot "
                 "(%0.3fs) over %d campaigns\n",
                 resident_t.median, oneshot_t.median, service_campaigns);
    return 1;
  }
  const double oneshot_cps =
      oneshot_t.median > 0 ? service_campaigns / oneshot_t.median : 0.0;
  const double resident_cps =
      resident_t.median > 0 ? service_campaigns / resident_t.median : 0.0;
  std::printf("  one-shot  %7.3fs med (%7.3fs min)  %6.2f campaigns/s\n",
              oneshot_t.median, oneshot_t.min, oneshot_cps);
  std::printf("  resident  %7.3fs med (%7.3fs min)  %6.2f campaigns/s  "
              "hit rate %.2f\n",
              resident_t.median, resident_t.min, resident_cps,
              service_stats.hitRate());

  JsonWriter w = benchJson(std::to_string(cores) + "-core SoC campaign, " +
                               std::to_string(patterns) + " patterns",
                           quick, repeats);
  w.field("speedup_4t_vs_serial", speedup4, 3).key("results").beginArray();
  for (const Measurement& m : rows) {
    w.beginObject()
        .field("threads", m.threads)
        .field("seconds_median", m.seconds_median, 4)
        .field("seconds_min", m.seconds_min, 4)
        .field("cores", m.cores)
        .field("cores_per_sec", m.coresPerSec(), 2)
        .field("tap_clocks", m.tap_clocks)
        .endObject();
  }
  w.endArray().key("tam_sweep").beginArray();
  for (const TamSweepRow& row : tam_rows) {
    w.beginObject()
        .field("tams", row.tams)
        .field("threads", 4)
        .field("seconds_median", row.seconds_median, 4)
        .field("seconds_min", row.seconds_min, 4)
        .key("per_tam")
        .beginArray();
    for (const TamReport& tr : row.report.tams) {
      w.beginObject()
          .field("tam", tr.tam_index)
          .field("name", tr.name)
          .field("cores", tr.core_order.size())
          .field("tap_clocks", tr.tap_clocks)
          .field("channels", tr.channels)
          .field("utilization", tr.utilization, 3)
          .endObject();
    }
    w.endArray().endObject();
  }
  w.endArray().key("placement_sweep").beginArray();
  for (const PlacementRow& row : place_rows) {
    w.beginObject()
        .field("placement", placementPolicyName(row.policy))
        .field("threads", 8)
        .field("seconds_median", row.seconds_median, 4)
        .field("seconds_min", row.seconds_min, 4)
        .field("predicted_makespan", row.forecast.predicted_makespan_tcks)
        .field("actual_makespan", row.report.actual_makespan_tcks)
        .field("predicted_spread", predictedSpread(row.forecast))
        .key("per_tam")
        .beginArray();
    for (const TamReport& tr : row.report.tams) {
      w.beginObject()
          .field("tam", tr.tam_index)
          .field("channels", tr.channels)
          .field("predicted_makespan", tr.predicted_makespan_tcks)
          .field("actual_makespan", tr.actual_makespan_tcks)
          .field("utilization", tr.utilization, 3)
          .endObject();
    }
    w.endArray().endObject();
  }
  w.endArray()
      .key("service")
      .beginObject()
      .field("campaigns", service_campaigns)
      .field("workers", 2)
      .key("oneshot")
      .beginObject()
      .field("seconds_median", oneshot_t.median, 4)
      .field("seconds_min", oneshot_t.min, 4)
      .field("campaigns_per_sec", oneshot_cps, 2)
      .endObject()
      .key("resident")
      .beginObject()
      .field("seconds_median", resident_t.median, 4)
      .field("seconds_min", resident_t.min, 4)
      .field("campaigns_per_sec", resident_cps, 2)
      .field("artifact_cache_hit_rate", service_stats.hitRate(), 4)
      .field("artifact_hits", service_stats.hits)
      .field("artifact_misses", service_stats.misses)
      .field("modules_built", service_stats.modules_built)
      .field("modules_shared", service_stats.modules_shared)
      .endObject()
      .endObject()
      .endObject();
  if (!writeBenchJson("BENCH_soc.json", w)) return 1;

  std::printf("\nspeedup at 4 shards vs serial: %.2fx "
              "(hardware_concurrency=%u)\n-> BENCH_soc.json\n",
              speedup4, std::thread::hardware_concurrency());
  return 0;
}
