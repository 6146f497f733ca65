# Smoke test: a short rt-backend run writes a real checkpoint directory,
# msverify scrubs it clean; then two kinds of deliberate damage (a truncated
# manifest, a source log without its header) must each be flagged with a
# non-zero exit. Driven from tools/CMakeLists as ctest
# `tools.verify_smoke`.
set(ckpt_dir "${WORK_DIR}/verify_smoke_ckpts")
file(REMOVE_RECURSE "${ckpt_dir}")

execute_process(
  COMMAND "${MSSIM}" --backend=rt --scheme ms-src+ap+delta --run-for 1
          --checkpoints 3 --dir "${ckpt_dir}"
  RESULT_VARIABLE sim_rc
  OUTPUT_VARIABLE sim_out
  ERROR_VARIABLE sim_err)
if(NOT sim_rc EQUAL 0)
  message(FATAL_ERROR "mssim failed (rc=${sim_rc}):\n${sim_out}\n${sim_err}")
endif()

execute_process(
  COMMAND "${MSVERIFY}" --dir "${ckpt_dir}"
  RESULT_VARIABLE clean_rc
  OUTPUT_VARIABLE clean_out
  ERROR_VARIABLE clean_err)
if(NOT clean_rc EQUAL 0)
  message(FATAL_ERROR
          "msverify flagged a freshly written directory (rc=${clean_rc}):\n"
          "${clean_out}\n${clean_err}")
endif()
if(NOT clean_out MATCHES "^clean: [0-9]+ committed epoch\\(s\\), [0-9]+ incomplete, [0-9]+ artifact\\(s\\) verified \\([0-9]+ bytes\\), 0 issue\\(s\\)\n")
  message(FATAL_ERROR "msverify verdict not clean:\n${clean_out}")
endif()

# Damage one durable artifact (truncate a manifest mid-header) and the scrub
# must exit non-zero, naming the file.
file(GLOB manifests "${ckpt_dir}/epoch_*/MANIFEST")
list(GET manifests 0 victim)
string(ASCII 77 83 68 70 magic)  # "MSDF" with nothing after it
file(WRITE "${victim}" "${magic}")

execute_process(
  COMMAND "${MSVERIFY}" --dir "${ckpt_dir}"
  RESULT_VARIABLE dirty_rc
  OUTPUT_VARIABLE dirty_out
  ERROR_VARIABLE dirty_err)
if(dirty_rc EQUAL 0)
  message(FATAL_ERROR
          "msverify missed a truncated manifest:\n${dirty_out}\n${dirty_err}")
endif()
if(NOT dirty_err MATCHES "CORRUPT .*MANIFEST")
  message(FATAL_ERROR
          "msverify did not name the damaged manifest:\n${dirty_out}\n${dirty_err}")
endif()

# Cut the 8-byte MSLG header off a source log: the frames are intact but the
# file no longer verifies as a log, and the scrub must name it.
file(GLOB logs "${ckpt_dir}/source_*.log")
list(GET logs 0 log_victim)
execute_process(
  COMMAND tail -c +9 "${log_victim}"
  OUTPUT_FILE "${log_victim}.cut"
  RESULT_VARIABLE cut_rc)
if(NOT cut_rc EQUAL 0)
  message(FATAL_ERROR "could not cut the header off ${log_victim}")
endif()
file(RENAME "${log_victim}.cut" "${log_victim}")

execute_process(
  COMMAND "${MSVERIFY}" --dir "${ckpt_dir}"
  RESULT_VARIABLE log_rc
  OUTPUT_VARIABLE log_out
  ERROR_VARIABLE log_err)
if(log_rc EQUAL 0)
  message(FATAL_ERROR
          "msverify missed a headerless source log:\n${log_out}\n${log_err}")
endif()
if(NOT log_err MATCHES "CORRUPT .*source_")
  message(FATAL_ERROR
          "msverify did not name the headerless source log:\n${log_out}\n${log_err}")
endif()
