#include "core/session_channel.hpp"

#include <chrono>
#include <stdexcept>
#include <string>

#include "fault/failpoint.hpp"
#include "service/artifacts.hpp"

namespace corebist {

namespace {

// Failpoint sites compiled into the session hot path (chaos testing and
// the quarantine suites). Context: index = core, seq = attempt
// or poll ordinal. kError throws SessionChannelError — the structured
// infrastructure failure the service knows how to retry — and kDelay
// stalls the protocol; other kinds make no sense here and are ignored.
constexpr const char* kFpChannelAttempt = "channel.attempt";
constexpr const char* kFpChannelPoll = "channel.poll";

void fireChannelSite(const char* site, int core_index, std::int64_t seq) {
  if (!failpointsArmed()) return;
  const auto a = failpointFire(site, core_index, seq);
  if (!a) return;
  if (a->kind == FailpointAction::Kind::kError) {
    throw SessionChannelError(core_index,
                              std::string("injected channel failure at ") +
                                  site + " (seq " + std::to_string(seq) +
                                  ")");
  }
  if (a->kind == FailpointAction::Kind::kDelay) {
    failpointSleepMs(a->delay_ms +
                     failpointJitterMs(*a, static_cast<std::uint64_t>(seq)));
  }
}

}  // namespace

SessionChannel::SessionChannel(Soc& soc, int tam_index,
                               ArtifactStore& artifacts)
    : soc_(soc),
      tam_index_(tam_index),
      artifacts_(artifacts),
      tap_(soc.tap().irWidth(), soc.tap().idcode()),
      tam_(tap_, soc.tam(tam_index).irSelect(), soc.tam(tam_index).name()),
      ate_(tap_, tam_.irSelect()) {
  // Attach this TAM's top-level wrappers in global core-index order — the
  // same order Soc::attachCore used — so replica slots equal chip slots.
  for (int c = 0; c < soc.coreCount(); ++c) {
    const Soc::CoreTopology& topo = soc.topology(c);
    if (topo.tam != tam_index || topo.depth() != 0) continue;
    WrappedCore* core = &soc.core(c);
    tam_.attach(&core->wrapper(), [core] { core->systemClockTick(); });
  }
}

CoreReport SessionChannel::testCore(const CorePlan& p,
                                    ObserverList& observers) {
  const Soc::CoreTopology& topo = soc_.topology(p.core_index);
  if (topo.tam != tam_index_) {
    throw std::logic_error("SessionChannel: core " +
                           std::to_string(p.core_index) +
                           " is not served by TAM " +
                           std::to_string(tam_index_));
  }
  CoreReport report;
  report.core_index = p.core_index;
  report.patterns = p.patterns;
  report.tam = topo.tam;
  report.depth = topo.depth();
  WrappedCore& core = soc_.core(p.core_index);
  report.core_name = core.name();

  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t tck0 = tap_.tckCount();

  for (int attempt = 1; attempt <= 1 + p.max_retries; ++attempt) {
    fireChannelSite(kFpChannelAttempt, p.core_index, attempt);
    observers.notify([&](SessionObserver& o) {
      o.onCoreStart(p.core_index, attempt);
    });
    ++report.attempts;

    ate_.reset();
    ate_.selectCore(topo.top_slot);
    ate_.selectPath(topo.child_path);
    ate_.sendCommand(BistCommand::kReset, 0);
    ate_.sendCommand(BistCommand::kLoadCount,
                     static_cast<std::uint16_t>(p.patterns));
    ate_.sendCommand(BistCommand::kStart, 0);

    // At-speed run while the ATE idles the TAP.
    ate_.runIdle(static_cast<std::size_t>(p.warmup_idle));
    report.bist_cycles += static_cast<std::size_t>(p.warmup_idle);

    // Poll status until end_test or the budget runs out.
    ate_.sendCommand(BistCommand::kSelectResult, P1500Ate::kStatusView);
    bool end_test = false;
    for (int poll = 0; poll < p.poll_budget && !end_test; ++poll) {
      fireChannelSite(kFpChannelPoll, p.core_index, poll);
      const std::uint16_t status = ate_.readWdr();
      ++report.polls;
      end_test = (status & P1500Ate::kStatusEndTest) != 0;
      if (!end_test) {
        ate_.runIdle(static_cast<std::size_t>(p.poll_idle));
        report.bist_cycles += static_cast<std::size_t>(p.poll_idle);
      }
    }
    if (end_test) {
      report.end_test_seen = true;
      break;
    }
    ++report.timeouts;
    observers.notify([&](SessionObserver& o) {
      o.onCoreTimeout(p.core_index, attempt, attempt <= p.max_retries);
    });
  }

  if (report.end_test_seen) {
    // Upload each MISR signature through the Output Selector.
    report.verdict = CoreVerdict::kPass;
    for (int m = 0; m < core.moduleCount(); ++m) {
      ate_.sendCommand(BistCommand::kSelectResult,
                       static_cast<std::uint16_t>(m));
      ModuleVerdict verdict;
      verdict.signature = ate_.readWdr();
      // The golden signature is the good-machine simulation every uncached
      // campaign pays per core; the shared artifact store memoizes it per
      // (module content, patterns).
      verdict.golden = artifacts_.goldenSignature(core, m, p.patterns);
      if (!verdict.pass()) report.verdict = CoreVerdict::kSignatureMismatch;
      report.modules.push_back(verdict);
    }
  } else {
    report.verdict = CoreVerdict::kTimeout;
  }

  report.tap_clocks = tap_.tckCount() - tck0;
  report.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  observers.notify([&](SessionObserver& o) { o.onCoreFinish(report); });
  return report;
}

}  // namespace corebist
