// SessionChannel: one independent test-access channel onto an SoC.
//
// A channel is the unit the CampaignService (service/service.hpp) runs
// concurrently: a private TAP-controller replica configured like the chip
// TAP, a replica of ONE of the chip's TAMs (same IR block, same top-level
// wrappers under the same slots), and the P1500Ate bit-banging protocol
// over them. A channel only ever cycles the wrapper tree of the core its
// TAM has selected, so channels for different core trees may run
// concurrently; cores sharing a top-level ancestor share one wrapper chain
// and one clock domain, so the service keeps a whole tree on a single
// channel.
//
// The seam behind which alternative access mechanisms — wider TAMs,
// streaming interfaces — can replace the internals.
#ifndef COREBIST_CORE_SESSION_CHANNEL_HPP_
#define COREBIST_CORE_SESSION_CHANNEL_HPP_

#include <stdexcept>
#include <string>

#include "core/session_observer.hpp"
#include "core/session_report.hpp"
#include "core/soc.hpp"
#include "core/test_plan.hpp"
#include "jtag/tap.hpp"
#include "tam/ate.hpp"
#include "tam/tam.hpp"

namespace corebist {

class ArtifactStore;

/// Structured failure of the test-access infrastructure under one core's
/// session — the channel (replica TAP/TAM/ATE plumbing), not the core under
/// test, is what failed. The service treats it as recoverable: reopen a
/// fresh channel, retry the core, and quarantine the core after its two
/// reopens instead of failing the campaign (service/service.cpp).
/// Raised today by the `channel.attempt` / `channel.poll` failpoint sites
/// (chaos testing); a real flaky-fixture transport would throw it from the
/// same places.
class SessionChannelError : public std::runtime_error {
 public:
  SessionChannelError(int core_index, const std::string& detail)
      : std::runtime_error("SessionChannel: core " +
                           std::to_string(core_index) + ": " + detail) {}
};

class SessionChannel {
 public:
  /// Open a channel onto `soc` through TAM `tam_index`. The replica TAM
  /// attaches the same top-level wrappers under the same slot numbers as
  /// the chip TAM, so CoreTopology select paths are valid verbatim.
  /// `artifacts` (not owned, must outlive the channel) serves golden
  /// signatures from the shared content-keyed cache instead of
  /// recomputing them per campaign; a hit is fingerprint-invisible — the
  /// cache key covers every input the value depends on (see
  /// service/artifacts.hpp).
  SessionChannel(Soc& soc, int tam_index, ArtifactStore& artifacts);

  /// Run one resolved plan entry's full protocol (all attempts) and
  /// report. `entry.core_index` must name a core served by this channel's
  /// TAM — the campaign layout guarantees it; a mismatch throws.
  /// `observers` receive the core's events.
  CoreReport testCore(const CorePlan& entry, ObserverList& observers);

 private:
  Soc& soc_;
  int tam_index_;
  ArtifactStore& artifacts_;
  TapController tap_;
  Tam tam_;
  P1500Ate ate_;
};

}  // namespace corebist

#endif  // COREBIST_CORE_SESSION_CHANNEL_HPP_
