# dbsp_report --run artifact handling, run via `cmake -P` by ctest
# (report.run_artifacts). --run writes each binary's artifact into a
# directory of its own under TMPDIR and removes it after ingest. TMPDIR is a
# fresh directory holding a stale artifact under the old fixed name
# (dbsp_report_<binary>.json), which must never be ingested:
#   1. a stub experiment binary that writes nothing: exit 2, and TMPDIR
#      holds nothing new;
#   2. a stub that writes a valid artifact: exit 0, and again nothing new;
#   3. the same stub beside a positional artifact with the same id: the
#      positional artifact wins.
#
# Required -D variables: REPORT_TOOL, WORK_DIR.

foreach(var REPORT_TOOL WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "report_run_check.cmake: missing -D${var}")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
set(TMP "${WORK_DIR}/tmp")
set(BIN "${WORK_DIR}/bin")
file(MAKE_DIRECTORY "${TMP}" "${BIN}")
set(STALE "${TMP}/dbsp_report_bench_e1_hmm_touching.json")
file(WRITE "${STALE}" [=[{"id": "e1", "title": "stale", "claim": "stale", "checks": [
  {"id": "c", "label": "c", "kind": "min", "measured": 1, "predicted": 0,
   "tolerance": 0, "pass": true}]}
]=])
set(ENV{TMPDIR} "${TMP}")

function(expect_tmp_untouched step)
  file(GLOB left "${TMP}/*")
  if(NOT left STREQUAL "${STALE}")
    message(FATAL_ERROR "${step}: TMPDIR holds ${left}, want only the stale artifact")
  endif()
endfunction()

set(STUB "${BIN}/bench_e1_hmm_touching")

# 1. No artifact: an error, not the stale file.
file(WRITE "${STUB}" "#!/bin/sh\nexit 0\n")
file(CHMOD "${STUB}" PERMISSIONS OWNER_READ OWNER_WRITE OWNER_EXECUTE)
execute_process(COMMAND "${REPORT_TOOL}" --run "${BIN}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "--run over a binary that writes nothing returned ${rc}, want 2: ${out}${err}")
endif()
if(NOT err MATCHES "bench_e1_hmm_touching wrote no artifact")
  message(FATAL_ERROR "--run exited 2 without naming the missing artifact: ${err}")
endif()
expect_tmp_untouched("missing artifact")

# 2. A written artifact is ingested and its directory removed.
file(WRITE "${STUB}" [=[#!/bin/sh
cat > "$2" <<'JSON'
{"id": "e1", "title": "stub", "claim": "stub", "checks": [
  {"id": "c", "label": "c", "kind": "min", "measured": 1, "predicted": 0,
   "tolerance": 0, "pass": true}]}
JSON
]=])
execute_process(COMMAND "${REPORT_TOOL}" --run "${BIN}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--run over a stub artifact returned ${rc}, want 0: ${out}${err}")
endif()
if(NOT out MATCHES "e1 +stub")
  message(FATAL_ERROR "--run did not ingest the fresh artifact: ${out}")
endif()
expect_tmp_untouched("written artifact")

# 3. A positional artifact overrides the run's artifact with the same id.
set(POSITIONAL "${WORK_DIR}/e1.json")
file(WRITE "${POSITIONAL}" [=[{"id": "e1", "title": "from-positional", "claim": "p", "checks": [
  {"id": "c", "label": "c", "kind": "min", "measured": 1, "predicted": 0,
   "tolerance": 0, "pass": true}]}
]=])
execute_process(COMMAND "${REPORT_TOOL}" --run "${BIN}" "${POSITIONAL}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--run beside a positional artifact returned ${rc}, want 0: ${out}${err}")
endif()
if(NOT out MATCHES "e1 +from-positional")
  message(FATAL_ERROR "the run's artifact overrode the positional one: ${out}")
endif()
expect_tmp_untouched("positional override")

message(STATUS "report --run artifacts OK")
