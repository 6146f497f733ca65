# Smoke test: a short rt-backend run writes a real checkpoint directory,
# msverify scrubs it clean and reports the source log's batch count and
# index range, and the log opens with an MSDF frame header (magic, version
# 1, kind 4 = source log); then three kinds of deliberate damage (a
# truncated manifest, a source log's head with its first 8 bytes cut off, a
# sealed segment cut the same way) must each be flagged with a non-zero
# exit, naming the file. Driven from tools/CMakeLists as ctest
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

if(NOT clean_out MATCHES "\nlog [^\n]*/source_0\\.log: [0-9]+ batch\\(es\\) of [0-9]+ record\\(s\\), index [0-9]+\\.\\.[0-9]+, [0-9]+ file\\(s\\)\n")
  message(FATAL_ERROR "msverify did not report the log's batches:\n${clean_out}")
endif()
file(READ "${ckpt_dir}/source_0.log" log_header LIMIT 8 HEX)
# "MSDF", version 1 (u16), kind 4 (source log), reserved 0.
if(NOT log_header STREQUAL "4d53444601000400")
  message(FATAL_ERROR
          "source log opens with ${log_header}, not an MSDF source-log frame")
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

# Cut the first 8 bytes off `victim`: the frames after the first are intact
# but the file no longer opens with the MSDF magic, which is damage, never a
# tear, and the scrub must name it.
function(cut_and_verify victim what)
  execute_process(
    COMMAND tail -c +9 "${victim}"
    OUTPUT_FILE "${victim}.cut"
    RESULT_VARIABLE cut_rc)
  if(NOT cut_rc EQUAL 0)
    message(FATAL_ERROR "could not cut 8 bytes off ${victim}")
  endif()
  file(RENAME "${victim}.cut" "${victim}")

  execute_process(
    COMMAND "${MSVERIFY}" --dir "${ckpt_dir}"
    RESULT_VARIABLE log_rc
    OUTPUT_VARIABLE log_out
    ERROR_VARIABLE log_err)
  if(log_rc EQUAL 0)
    message(FATAL_ERROR
            "msverify missed a cut ${what}:\n${log_out}\n${log_err}")
  endif()
  string(FIND "${log_err}" "CORRUPT ${victim}:" named)
  if(named EQUAL -1)
    message(FATAL_ERROR
            "msverify did not name the cut ${what} ${victim}:\n"
            "${log_out}\n${log_err}")
  endif()
endfunction()

# The head takes the appends; the first commit sealed the records before it
# into source_<op>.<first>-<last>.log, kept while the epochs still need them.
file(GLOB heads "${ckpt_dir}/source_*.log")
list(FILTER heads EXCLUDE REGEX "/source_[0-9]+\\.[0-9]+-[0-9]+\\.log$")
file(GLOB sealed "${ckpt_dir}/source_*.*-*.log")
list(LENGTH heads num_heads)
list(LENGTH sealed num_sealed)
if(num_heads EQUAL 0 OR num_sealed EQUAL 0)
  message(FATAL_ERROR
          "expected a source log head and a sealed segment in ${ckpt_dir}")
endif()
list(GET heads 0 head_victim)
cut_and_verify("${head_victim}" "source log head")
list(GET sealed 0 sealed_victim)
cut_and_verify("${sealed_victim}" "sealed source log segment")
