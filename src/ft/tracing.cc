#include "ft/tracing.h"

#include <utility>

namespace ms::ft {

const char* ft_point_name(FtPoint p) {
  switch (p) {
    case FtPoint::kTokenAlignStart: return "token-align-start";
    case FtPoint::kTokenSent: return "token-sent";
    case FtPoint::kTokenReceived: return "token-received";
    case FtPoint::kAlignDone: return "align-done";
    case FtPoint::kForkStart: return "fork-start";
    case FtPoint::kForkDone: return "fork-done";
    case FtPoint::kSerializeStart: return "serialize-start";
    case FtPoint::kCheckpointWrite: return "checkpoint-write";
    case FtPoint::kCheckpointDone: return "checkpoint-done";
    case FtPoint::kEpochAbandon: return "epoch-abandon";
    case FtPoint::kRecoveryStart: return "recovery-start";
    case FtPoint::kRecoveryPhase1: return "recovery-phase1";
    case FtPoint::kRecoveryPhase2: return "recovery-phase2";
    case FtPoint::kRecoveryPhase3: return "recovery-phase3";
    case FtPoint::kRecoveryChainDone: return "recovery-chain-done";
    case FtPoint::kRecoveryPhase4: return "recovery-phase4";
    case FtPoint::kRecoveryComplete: return "recovery-complete";
    case FtPoint::kNodeSuspected: return "node-suspected";
    case FtPoint::kNodeExonerated: return "node-exonerated";
    case FtPoint::kFailureVerdict: return "failure-verdict";
    case FtPoint::kCorruptArtifact: return "corrupt-artifact";
    case FtPoint::kRecoveryFallback: return "recovery-fallback";
  }
  return "?";
}

namespace {
constexpr const char* kCkptCat = "checkpoint";
constexpr const char* kRecoveryCat = "recovery";
}  // namespace

ProbeTracer::ProbeTracer(TraceRecorder* trace, std::function<SimTime()> now)
    : trace_(trace), now_(std::move(now)) {}

int ProbeTracer::tid(int hau) const {
  return hau < 0 ? trace_track::kControllerTid : trace_track::hau_tid(hau);
}

void ProbeTracer::end_track(SimTime ts, int hau) {
  trace_->end_all(ts, trace_track::kAppPid, tid(hau));
  open_phase_.erase(hau);
}

void ProbeTracer::end_everything(SimTime ts) {
  trace_->end_everything(ts);
  open_ckpt_.clear();
  open_phase_.clear();
}

void ProbeTracer::on(FtPoint point, int hau, std::uint64_t id) {
  std::scoped_lock lk(mu_);
  const SimTime ts = now_();
  const int pid = trace_track::kAppPid;
  const int t = tid(hau);
  // Each recovery phase ends the one still open on its track: a per-HAU
  // chain (phases 1-3 on the HAU's track) or the controller's sequence
  // (rt: phases 1-4 under the umbrella; sim MS: phase 4 alone).
  auto begin_phase = [&](const char* name) {
    if (open_phase_.erase(hau) > 0) trace_->end(ts, pid, t);
    trace_->begin(ts, pid, t, name, kRecoveryCat, id);
    open_phase_.insert(hau);
  };
  switch (point) {
    case FtPoint::kTokenAlignStart:
      if (hau < 0) {
        // Application-wide epoch initiation: a point on the controller
        // track; the per-unit spans carry the epoch's timing.
        trace_->instant(ts, pid, t, ft_point_name(point), kCkptCat, id);
        break;
      }
      // A fresh epoch supersedes whatever the previous one left open on
      // this track (the controller may have abandoned it silently).
      end_track(ts, hau);
      trace_->begin(ts, pid, t, "token-collection", kCkptCat, id);
      open_ckpt_[hau] = id;
      break;
    case FtPoint::kTokenSent:
    case FtPoint::kTokenReceived:
      trace_->instant(ts, pid, t, ft_point_name(point), kCkptCat, id);
      break;
    case FtPoint::kAlignDone:
      trace_->end(ts, pid, t);
      break;
    case FtPoint::kForkStart:
      trace_->begin(ts, pid, t, "fork", kCkptCat, id);
      open_ckpt_[hau] = id;
      break;
    case FtPoint::kForkDone:
      trace_->end(ts, pid, t);
      break;
    case FtPoint::kSerializeStart:
      trace_->begin(ts, pid, t, "serialize", kCkptCat, id);
      open_ckpt_[hau] = id;
      break;
    case FtPoint::kCheckpointWrite:
      trace_->end(ts, pid, t);  // serialize
      trace_->begin(ts, pid, t, "disk-io", kCkptCat, id);
      break;
    case FtPoint::kCheckpointDone:
      end_track(ts, hau);
      open_ckpt_.erase(hau);
      break;
    case FtPoint::kEpochAbandon: {
      trace_->instant(ts, pid, t, ft_point_name(point), kCkptCat, id);
      for (auto it = open_ckpt_.begin(); it != open_ckpt_.end();) {
        if (it->second == id) {
          end_track(ts, it->first);
          it = open_ckpt_.erase(it);
        } else {
          ++it;
        }
      }
      break;
    }
    case FtPoint::kRecoveryStart:
      if (hau < 0) {
        // Whole-application recovery aborts any checkpoint epoch in flight.
        end_everything(ts);
      } else {
        end_track(ts, hau);
        open_ckpt_.erase(hau);
      }
      trace_->begin(ts, pid, t, "recovery", kRecoveryCat, id);
      break;
    case FtPoint::kRecoveryPhase1:
      begin_phase("phase1-reload");
      break;
    case FtPoint::kRecoveryPhase2:
      begin_phase("phase2-read");
      break;
    case FtPoint::kRecoveryPhase3:
      begin_phase("phase3-rebuild");
      break;
    case FtPoint::kRecoveryChainDone:
      end_track(ts, hau);
      break;
    case FtPoint::kRecoveryPhase4:
      begin_phase("phase4-reconnect");
      break;
    case FtPoint::kRecoveryComplete:
      if (hau < 0) {
        // Dead participants may have left phase spans dangling on their
        // tracks; the application-wide completion closes everything.
        end_everything(ts);
      } else {
        end_track(ts, hau);
      }
      trace_->instant(ts, pid, t, ft_point_name(point), kRecoveryCat, id);
      break;
    // Detector events are instants on the controller track: suspicion and
    // exoneration/verdict bracket the detection window on the timeline, and
    // a verdict is immediately followed by the kRecoveryStart span above.
    // Integrity events join them: a corrupt artifact and the fallback it
    // forces both belong to the recovery narrative.
    case FtPoint::kNodeSuspected:
    case FtPoint::kNodeExonerated:
    case FtPoint::kFailureVerdict:
    case FtPoint::kCorruptArtifact:
    case FtPoint::kRecoveryFallback:
      trace_->instant(ts, pid, trace_track::kControllerTid,
                      ft_point_name(point), kRecoveryCat, id);
      break;
  }
}

}  // namespace ms::ft
