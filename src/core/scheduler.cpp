#include "core/scheduler.hpp"

#include "service/artifacts.hpp"
#include "service/service.hpp"

namespace corebist {

SocTestScheduler::SocTestScheduler(Soc& soc, SessionObserver* observer)
    : soc_(soc),
      observer_(observer),
      artifacts_(std::make_shared<ArtifactStore>()) {}

SessionReport SocTestScheduler::run(const TestPlan& plan) {
  // A per-call service sized to the plan's thread budget, sharing the
  // scheduler-lifetime artifact store. No quotas: the one-shot path admits
  // exactly one campaign, so admission can only fail on plan validation
  // (std::invalid_argument out of submit, same as always).
  CampaignServiceConfig cfg;
  cfg.workers = resolvePlanWorkers(plan);
  cfg.artifacts = artifacts_;
  CampaignService service(soc_, cfg);
  SubmitOptions opts;
  opts.observer = observer_;
  return service.await(service.submit(plan, opts));
}

PlanForecast SocTestScheduler::predict(const TestPlan& plan) {
  const CampaignLayout layout =
      layoutCampaign(plan, soc_, resolvePlanWorkers(plan), *artifacts_);
  return forecastFromLayout(layout, soc_, plan.placement);
}

CoreReport SocTestScheduler::testCore(CorePlan entry) {
  TestPlan plan;
  plan.num_threads = 1;
  plan.cores.push_back(entry);
  return run(plan).cores.front();
}

}  // namespace corebist
