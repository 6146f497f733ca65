# Smoke test: the real-threads backend traces through the same protocol
# tracer as the simulator. A short rt run crashes once and recovers, on the
# restart path and then under the self-heal supervisor; each capture must
# pass mstrace --check and its summary must show checkpoint epochs and the
# one recovery run. The rt backend also refuses the simulator-only baseline
# scheme. Driven from tools/CMakeLists as ctest `tools.rt_trace_smoke`.

# --scheme baseline on the rt backend is a usage error: exit 2 exactly (a
# crash is not a refusal) and a message that points at the simulator.
execute_process(
  COMMAND "${MSSIM}" --backend rt --scheme baseline --run-for 1
          --dir "${WORK_DIR}/rt_trace_smoke_baseline_ckpts"
  RESULT_VARIABLE base_rc
  OUTPUT_VARIABLE base_out
  ERROR_VARIABLE base_err)
if(NOT base_rc STREQUAL "2")
  message(FATAL_ERROR "rt --scheme baseline: want exit 2, got ${base_rc}:\n"
          "${base_out}\n${base_err}")
endif()
if(NOT base_err MATCHES "baseline runs on the simulator backend")
  message(FATAL_ERROR "rt --scheme baseline: no usage message:\n${base_err}")
endif()

foreach(path restart auto-recover)
  set(trace_file "${WORK_DIR}/rt_trace_smoke_${path}.json")
  set(ckpt_dir "${WORK_DIR}/rt_trace_smoke_${path}_ckpts")
  file(REMOVE_RECURSE "${ckpt_dir}")
  set(extra "")
  if(path STREQUAL "auto-recover")
    set(extra --auto-recover)
  endif()

  execute_process(
    COMMAND "${MSSIM}" --backend rt --scheme ms-src+ap --run-for 2
            --checkpoints 3 --fail-at 1 ${extra} --dir "${ckpt_dir}"
            --trace "${trace_file}"
    RESULT_VARIABLE sim_rc
    OUTPUT_VARIABLE sim_out
    ERROR_VARIABLE sim_err)
  if(NOT sim_rc EQUAL 0)
    message(FATAL_ERROR
            "[${path}] mssim failed (rc=${sim_rc}):\n${sim_out}\n${sim_err}")
  endif()

  execute_process(
    COMMAND "${MSTRACE}" --check "${trace_file}"
    RESULT_VARIABLE check_rc
    OUTPUT_VARIABLE check_out
    ERROR_VARIABLE check_err)
  if(NOT check_rc EQUAL 0)
    message(FATAL_ERROR "[${path}] mstrace --check failed (rc=${check_rc}):\n"
            "${check_out}\n${check_err}")
  endif()

  execute_process(
    COMMAND "${MSTRACE}" "${trace_file}"
    RESULT_VARIABLE sum_rc
    OUTPUT_VARIABLE sum_out
    ERROR_VARIABLE sum_err)
  if(NOT sum_rc EQUAL 0)
    message(FATAL_ERROR "[${path}] mstrace summary failed:\n${sum_out}\n${sum_err}")
  endif()
  if(NOT sum_out MATCHES ", 1 recovery run\\(s\\)")
    message(FATAL_ERROR "[${path}] trace summary lacks the recovery run:\n${sum_out}")
  endif()
  if(NOT sum_out MATCHES "checkpoint epoch [0-9]")
    message(FATAL_ERROR "[${path}] trace summary reports no checkpoint epochs:\n${sum_out}")
  endif()
endforeach()
