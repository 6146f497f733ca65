// Execution-backend seam for the fault-tolerance protocol.
//
// The Meteor Shower controller logic — epoch serialization, wedge
// abandonment, per-unit report aggregation, completion detection, periodic
// initiation — is execution-agnostic: it needs a clock, a timer, a unit
// roster, and three protocol actions (start an epoch, commit a completed
// epoch, note an abandoned one). This interface is that contract.
//
// Two adapters exist:
//   - SimRuntime (ft/sim_runtime.h): the discrete-event stack. Timers are
//     simulation events, units are HAUs, epoch actions fan out over the
//     simulated network. Behaviour is bit-for-bit what MsScheme did before
//     the seam existed; the tier-1 sim tests pin that.
//   - RtRuntime (ft/rt_runtime.h): real threads over rt::RtEngine. Timers
//     run on the runtime's control thread, units are operator workers, epoch
//     actions inject checkpoint tokens and commit epoch directories via a
//     rename-into-place manifest.
#pragma once

#include <cstdint>
#include <functional>

#include "common/units.h"

namespace ms::ft {

class Runtime {
 public:
  virtual ~Runtime() = default;

  // --- unit roster ---
  virtual int num_units() const = 0;
  virtual bool unit_is_source(int unit) const = 0;
  virtual bool unit_alive(int unit) const = 0;

  // --- clock & timers ---
  virtual SimTime now() const = 0;
  virtual void schedule_after(SimTime delay, std::function<void()> fn) = 0;

  // --- protocol actions (coordinator -> backend) ---
  /// Fan the epoch-begin command out to the participating units: send the
  /// checkpoint command / inject tokens per the scheme variant.
  virtual void start_epoch(std::uint64_t epoch) = 0;
  /// Every unit reported for `epoch`: garbage-collect the previous epoch's
  /// stored state and let sources truncate their preserved logs up to the
  /// epoch boundary.
  virtual void commit_epoch(std::uint64_t epoch) = 0;
  /// `epoch` was abandoned before completion (wedged past the stale window,
  /// or a unit's stable-storage write failed definitively).
  virtual void abandon_epoch(std::uint64_t epoch) { (void)epoch; }
  /// Re-issue the epoch-begin command for an epoch still in flight: on an
  /// unreliable network a token or completion report may have been lost,
  /// and units handle the re-delivery idempotently (re-forwarding tokens /
  /// re-sending stored reports instead of re-checkpointing). Default no-op:
  /// backends with reliable in-process transport never need it.
  virtual void retransmit_epoch(std::uint64_t epoch) { (void)epoch; }
};

}  // namespace ms::ft
