#!/usr/bin/env bash
# Build-and-test matrix: runs the full suite under the default
# (RelWithDebInfo), sanitize (ASan+UBSan) and tsan presets in one command.
#
#   tools/run_matrix.sh                 # all three presets, full suite
#   tools/run_matrix.sh -L rt_protocol  # extra args pass through to ctest
#   PRESETS="default tsan" tools/run_matrix.sh
#
# After the default preset it also runs the end-to-end benchmark's
# selfcheck (python3 e2ebench/run.py --selfcheck). Exits non-zero on the
# first preset whose configure, build, test or smoke step fails, and prints
# a per-preset summary at the end.
set -u

cd "$(dirname "$0")/.."

PRESETS="${PRESETS:-default sanitize tsan}"
JOBS="${JOBS:-$(nproc)}"
# Backstop per-test timeout (seconds): a wedged recovery or a deadlocked
# self-heal fails the run instead of hanging the matrix. Tests with their
# own TIMEOUT property (e.g. the self_heal suite) keep the tighter value.
TEST_TIMEOUT="${TEST_TIMEOUT:-300}"
declare -a results=()
status=0

for preset in $PRESETS; do
  echo "=== [$preset] configure ==="
  if ! cmake --preset "$preset"; then
    results+=("$preset: CONFIGURE FAILED"); status=1; break
  fi
  echo "=== [$preset] build ==="
  if ! cmake --build --preset "$preset" -j "$JOBS"; then
    results+=("$preset: BUILD FAILED"); status=1; break
  fi
  echo "=== [$preset] test ==="
  if ! ctest --preset "$preset" -j "$JOBS" --timeout "$TEST_TIMEOUT" "$@"; then
    results+=("$preset: TESTS FAILED"); status=1; break
  fi
  # Transport repeat pass: the batched-transport drills and the engine bench
  # smoke, repeated serially. A lost wakeup or a reordered flush shows up as
  # a hang (caught by the timeout) or a FIFO failure, and only
  # intermittently, so one pass under the sanitizers is not enough.
  echo "=== [$preset] transport repeat ==="
  if ! ctest --preset "$preset" \
      -R '^RtEngineBatchTest\.|bench_smoke_engine_throughput' \
      --repeat until-fail:20 --timeout 60; then
    results+=("$preset: TRANSPORT REPEAT FAILED"); status=1; break
  fi
  # Source-log segment repeat pass under the sanitizers: a commit's seal
  # syncs the head without the log's mutex while the source appends, then
  # takes it for the rename and the handle swap. The SourceLogTest cases
  # (the batch-frame, damage and previous-format drills among them), the
  # frame parser's tear/damage drill, the segment drills (seal, unlink,
  # crash around both, fallback into older segments) and the runtime's
  # batch-frame, damage, log-start and previous-format drills repeat
  # serially so a race in that handoff, or a parser reading past a damaged
  # frame, shows up.
  if [[ "$preset" != "default" ]]; then
    echo "=== [$preset] source-log segment repeat ==="
    if ! ctest --preset "$preset" \
        -R '^SourceLogTest\.|^DurableFileTest\.ScanFrames|^RtCorruptionTest\.(Segment|Batch|DamagedHead|LogStart|HeaderFlip|FrameFlip|FailedFirstAppend|PreChecksum|EveryArtifactBitFlip)|^RtProtocolTest\.SourceLogTruncatesAtCommit$' \
        --repeat until-fail:20 --timeout 120; then
      results+=("$preset: SEGMENT REPEAT FAILED"); status=1; break
    fi
  fi
  # Control-thread repeat pass under the sanitizers: every report, commit,
  # AA tick and heal runs on the runtime's one control thread while the
  # engine's threads post to it. The protocol drills (the slow-manifest
  # drill and the stop/start chain test among them), the rt chaos kill
  # matrix and the self-heal suite repeat serially so an ordering slip
  # between a post and the engine shows up.
  if [[ "$preset" != "default" ]]; then
    echo "=== [$preset] control-thread repeat ==="
    if ! ctest --preset "$preset" \
        -R '^RtProtocolTest\.|^ProtocolPoints/CheckpointKillTest\.|^RecoveryPhases/RecoveryKillTest\.|^RtChaosTest\.|SelfHeal' \
        --repeat until-fail:20 --timeout 120; then
      results+=("$preset: CONTROL-THREAD REPEAT FAILED"); status=1; break
    fi
  fi
  # The self-healing drills get a dedicated serial pass on top of the full
  # suite: crash-recovery timing is wall-clock-sensitive, so run them without
  # sibling load to catch latent flakiness the parallel run can mask.
  echo "=== [$preset] self-heal drills ==="
  if ! ctest --preset "$preset" -L self_heal --timeout "$TEST_TIMEOUT"; then
    results+=("$preset: SELF-HEAL FAILED"); status=1; break
  fi
  # Corruption drills get the same dedicated serial pass under default and
  # sanitize (not tsan: the drills are single-incarnation disk-damage
  # scenarios, and the sanitizers are what catch a recovery path reading
  # freed or uninitialized bytes off a corrupt frame).
  if [[ "$preset" != "tsan" ]]; then
    echo "=== [$preset] corruption drills ==="
    if ! ctest --preset "$preset" -L corruption --timeout "$TEST_TIMEOUT"; then
      results+=("$preset: CORRUPTION DRILLS FAILED"); status=1; break
    fi
  fi
  # rt-scheme smokes: each scheme end-to-end on the real-threads backend,
  # with a mid-run crash and recovery, under each preset's instrumentation.
  # ms-src delivers snapshots inline on the worker under op_mu; ms-src+ap+aa
  # adds the samplers and stage clock (control-thread tick);
  # ms-src+ap+delta adds incremental checkpoints, adaptive cadence and
  # base+delta chain recovery. The directory the crash and recovery leave
  # behind must scrub clean with the same preset's msverify, and the run's
  # protocol trace must pass the same preset's mstrace --check.
  mssim_bin="build/tools/mssim"
  case "$preset" in
    sanitize) mssim_bin="build-sanitize/tools/mssim" ;;
    tsan) mssim_bin="build-tsan/tools/mssim" ;;
  esac
  for scheme in ms-src ms-src+ap+aa ms-src+ap+delta; do
    echo "=== [$preset] $scheme smoke ==="
    smoke_dir="$(mktemp -d)"
    if ! "$mssim_bin" --backend rt --scheme "$scheme" \
        --run-for 2 --fail-at 1 --dir "$smoke_dir/ckpt" \
        --trace "$smoke_dir/trace.json" >/dev/null; then
      results+=("$preset: $scheme SMOKE FAILED"); status=1; break 2
    fi
    if ! "${mssim_bin%mssim}msverify" --dir "$smoke_dir/ckpt"; then
      results+=("$preset: $scheme SMOKE SCRUB FAILED"); status=1; break 2
    fi
    if ! "${mssim_bin%mssim}mstrace" --check "$smoke_dir/trace.json"; then
      results+=("$preset: $scheme SMOKE TRACE FAILED"); status=1; break 2
    fi
  done
  # End-to-end benchmark oracle smoke, once, after the default preset:
  # 2-second runs of every BENCHMARK.json workload, untraced and traced, must
  # pass the exactly-once oracle with no failed operation and emit every
  # declared metric. It builds its own release binary under .bench_build/.
  if [[ "$preset" == "default" ]]; then
    echo "=== [$preset] e2e selfcheck ==="
    if ! python3 e2ebench/run.py --selfcheck; then
      results+=("$preset: E2E SELFCHECK FAILED"); status=1; break
    fi
  fi
  results+=("$preset: OK")
done

# Perf-trajectory pass (release preset, serial): regenerates BENCH_*.json
# via the pinned bench set and gates on >10% regression against the
# committed trajectory, plus the checker's own fixture tests.
if [[ $status -eq 0 && "${SKIP_BENCH_TRAJECTORY:-0}" != "1" ]]; then
  echo "=== [release] bench trajectory ==="
  if ! cmake --preset release; then
    results+=("release/bench_trajectory: CONFIGURE FAILED"); status=1
  elif ! cmake --build --preset release -j "$JOBS"; then
    results+=("release/bench_trajectory: BUILD FAILED"); status=1
  elif ! ctest --preset bench-trajectory --timeout "$TEST_TIMEOUT"; then
    results+=("release/bench_trajectory: CHECKER TESTS FAILED"); status=1
  elif ! tools/bench_trajectory.sh "matrix-$(date +%Y%m%d)" build-release; then
    results+=("release/bench_trajectory: REGRESSION GATE FAILED"); status=1
  else
    results+=("release/bench_trajectory: OK")
  fi
fi

echo
echo "=== matrix summary ==="
for line in "${results[@]}"; do
  echo "  $line"
done
exit $status
