// Instrumentation points along the checkpoint and recovery pipelines.
//
// Both runtimes announce these as they move through the protocol: the
// simulator's schemes and the real-threads RtRuntime. Subscribers react at
// precisely-defined protocol states — "when relay1 starts serializing",
// "when recovery enters phase 2" — rather than at wall-clock offsets. In
// the simulator probes fire in deterministic simulation order, so any
// scripted reaction is bit-for-bit reproducible from (seed, script); the rt
// runtime fires them from its worker, helper and control threads.
//
// The subscribers share this one spine:
//   - the chaos fault-injection harnesses (src/failure/chaos.h for the
//     simulator, src/failure/rt_chaos.h for real threads), which fire
//     scripted faults when a point is reached;
//   - the protocol tracer (src/ft/tracing.h), which folds the points into
//     TraceRecorder spans (token-collection → serialize → disk-I/O per HAU
//     per epoch; recovery phases 1-4) for the Chrome trace exporter.
#pragma once

#include <cstdint>
#include <functional>

namespace ms::ft {

enum class FtPoint {
  // Checkpoint side (hau = the HAU involved).
  kTokenAlignStart,   // checkpoint command / first token arrived at the HAU
  kTokenSent,         // the HAU emitted its (1-hop or trickling) tokens
  kTokenReceived,     // a token of the active epoch reached a port head
  kAlignDone,         // tokens collected on every in-port; capture begins
  kForkStart,         // asynchronous checkpoint helper fork begins
  kForkDone,          // fork finished; parent resumes under the CoW tax
  kSerializeStart,    // state serialization begins
  kCheckpointWrite,   // stable-storage put issued
  kCheckpointDone,    // stable-storage put acknowledged
  kEpochAbandon,      // epoch aborted (wedged, or an HAU's write failed)
  // Recovery side (hau = -1 for application-wide events).
  kRecoveryStart,     // whole-application recovery initiated
  kRecoveryPhase1,    // operator reload begins at an HAU
  kRecoveryPhase2,    // checkpoint read begins at an HAU
  kRecoveryPhase3,    // deserialize/rebuild begins at an HAU
  kRecoveryChainDone, // phases 1-3 finished (or abandoned) at an HAU
  kRecoveryPhase4,    // controller reconnection handshake begins
  kRecoveryComplete,  // recovery finished (queued re-checks may follow)
  // Failure-detector side (hau = node id in the sim, operator id in the rt
  // runtime; id = cumulative miss/suspicion count at the emitting event).
  kNodeSuspected,     // first missed heartbeat: unit enters the suspect state
  kNodeExonerated,    // late heartbeat cleared a suspect (false positive)
  kFailureVerdict,    // suspicion count crossed the threshold: unit is failed
  // Durable-state integrity (rt runtime; hau = op id or -1, id = the epoch
  // involved where one exists).
  kCorruptArtifact,   // a durable blob failed checksum/length verification
  kRecoveryFallback,  // recovery skipped a corrupt epoch for an older one
};

/// Stable kebab-case name of a point (defined in ft/tracing.cc, whose
/// instants carry these names).
const char* ft_point_name(FtPoint p);

/// (point, hau_id or -1, checkpoint id / recovery sequence number).
using FtProbe = std::function<void(FtPoint, int, std::uint64_t)>;

}  // namespace ms::ft
