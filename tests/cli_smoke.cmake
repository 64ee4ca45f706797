# End-to-end smoke of the ddtr CLI, run as a ctest:
#   ddtr apps                                  -> lists the registry
#   ddtr explore --app url --scale 0.05 --log f -> writes a result log
#   ddtr pareto --log f                         -> post-processes it
# plus the flag-parsing contract: a trailing --flag with no value must be
# an error, not a silently swallowed positional, and an output file that
# cannot be written must fail the command.
#
# Invoked by CMakeLists.txt as:
#   cmake -DDDTR_CLI=<path-to-ddtr> -DWORK_DIR=<scratch-dir> -P cli_smoke.cmake

if(NOT DEFINED DDTR_CLI OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "cli_smoke.cmake needs -DDDTR_CLI=... -DWORK_DIR=...")
endif()

file(MAKE_DIRECTORY "${WORK_DIR}")
set(LOG_FILE "${WORK_DIR}/url.log")

function(run_cli expect_success out_var)
  execute_process(
      COMMAND ${DDTR_CLI} ${ARGN}
      RESULT_VARIABLE result
      OUTPUT_VARIABLE output
      ERROR_VARIABLE errout)
  if(expect_success AND NOT result EQUAL 0)
    message(FATAL_ERROR
        "ddtr ${ARGN} failed (exit ${result}):\n${output}\n${errout}")
  endif()
  if(NOT expect_success AND result EQUAL 0)
    message(FATAL_ERROR
        "ddtr ${ARGN} unexpectedly succeeded:\n${output}\n${errout}")
  endif()
  set(${out_var} "${output}\n${errout}" PARENT_SCOPE)
endfunction()

# 1. The registry listing names every built-in workload.
run_cli(TRUE apps_out apps)
foreach(app route url ipchains drr)
  if(NOT apps_out MATCHES "${app}")
    message(FATAL_ERROR "'ddtr apps' does not list '${app}':\n${apps_out}")
  endif()
endforeach()

# 2. Explore a registered workload end to end, writing a result log.
# Remove any log left by a previous ctest run first, so a regression that
# stops writing the file cannot pass against stale output.
file(REMOVE "${LOG_FILE}")
run_cli(TRUE explore_out
        explore --app url --scale 0.05 --log ${LOG_FILE})
if(NOT explore_out MATCHES "Pareto-optimal combinations")
  message(FATAL_ERROR "explore output lacks a Pareto set:\n${explore_out}")
endif()
if(NOT EXISTS "${LOG_FILE}")
  message(FATAL_ERROR "explore did not write ${LOG_FILE}")
endif()

# 3. Post-process the log (the paper's "log files -> post-processing").
run_cli(TRUE pareto_out pareto --log ${LOG_FILE})
if(NOT pareto_out MATCHES "Pareto-optimal points out of")
  message(FATAL_ERROR "pareto output unexpected:\n${pareto_out}")
endif()

# 4. Valueless boolean flags work (--greedy), unknown apps and trailing
#    value-less flags are hard errors.
run_cli(TRUE greedy_out explore --app drr --scale 0.05 --greedy)
run_cli(FALSE missing_value_out explore --app)
if(NOT missing_value_out MATCHES "requires a value")
  message(FATAL_ERROR
      "trailing --app did not report a missing value:\n${missing_value_out}")
endif()
run_cli(FALSE unknown_app_out explore --app not-registered)
if(NOT unknown_app_out MATCHES "unknown app")
  message(FATAL_ERROR
      "unknown app not reported:\n${unknown_app_out}")
endif()

# 5. Malformed numeric flag values are clean usage errors, not uncaught
#    std::invalid_argument crashes — for every numeric flag.
run_cli(FALSE bad_scale_out explore --app url --scale abc)
if(NOT bad_scale_out MATCHES "expects a number")
  message(FATAL_ERROR "bad --scale not reported:\n${bad_scale_out}")
endif()
run_cli(FALSE bad_cap_out explore --app url --scale 0.05 --survivor-cap 0.2x)
if(NOT bad_cap_out MATCHES "expects a number")
  message(FATAL_ERROR "bad --survivor-cap not reported:\n${bad_cap_out}")
endif()
# Out-of-range values fail before any work: --scale in (0, 100],
# --survivor-cap in [0, 1], both finite.
foreach(value nan inf -3 101)
  run_cli(FALSE range_scale_out explore --app url --scale ${value})
  if(NOT range_scale_out MATCHES "scale must be finite and in \\(0, 100\\]")
    message(FATAL_ERROR
        "out-of-range --scale ${value} not reported:\n${range_scale_out}")
  endif()
endforeach()
foreach(value nan -1 5)
  run_cli(FALSE range_cap_out
          explore --app url --scale 0.05 --survivor-cap ${value})
  if(NOT range_cap_out MATCHES "survivor-cap must be in \\[0, 1\\]")
    message(FATAL_ERROR
        "out-of-range --survivor-cap ${value} not reported:\n${range_cap_out}")
  endif()
endforeach()
run_cli(FALSE bad_jobs_out explore --app url --scale 0.05 --jobs -1)
if(NOT bad_jobs_out MATCHES "expects a non-negative integer")
  message(FATAL_ERROR "bad --jobs not reported:\n${bad_jobs_out}")
endif()
run_cli(FALSE bad_packets_out tracegen --preset nlanr-campus --packets 10x)
if(NOT bad_packets_out MATCHES "expects a non-negative integer")
  message(FATAL_ERROR "bad --packets not reported:\n${bad_packets_out}")
endif()
run_cli(FALSE bad_offset_out tracegen --preset nlanr-campus --seed-offset z)
if(NOT bad_offset_out MATCHES "expects a non-negative integer")
  message(FATAL_ERROR "bad --seed-offset not reported:\n${bad_offset_out}")
endif()

# 5b. A flag the subcommand does not declare (a typo) is a usage error
#     with exit status 2, before any work — never silently ignored.
foreach(case
        "explore;--app;url;--scael;0.05;--jbos;2|--scael"
        "tracegen;--preset;nlanr-campus;--pakets;10|--pakets")
  string(REPLACE "|" ";" parts "${case}")
  list(GET parts -1 bad_flag)
  list(REMOVE_AT parts -1)
  execute_process(
      COMMAND ${DDTR_CLI} ${parts}
      RESULT_VARIABLE unknown_result
      OUTPUT_VARIABLE unknown_out
      ERROR_VARIABLE unknown_err)
  if(NOT unknown_result EQUAL 2 OR
     NOT unknown_err MATCHES "error: unknown flag ${bad_flag}")
    message(FATAL_ERROR
        "ddtr ${parts}: expected 'unknown flag ${bad_flag}' and exit 2, "
        "got exit ${unknown_result}:\n${unknown_out}\n${unknown_err}")
  endif()
endforeach()

# 6. Persistent simulation cache: a warm rerun executes ZERO simulations
#    and writes a byte-identical result log.
set(CACHE_DIR "${WORK_DIR}/sim_cache")
file(REMOVE_RECURSE "${CACHE_DIR}")
set(COLD_LOG "${WORK_DIR}/cache_cold.log")
set(WARM_LOG "${WORK_DIR}/cache_warm.log")
run_cli(TRUE cache_cold_out
        explore --app url --scale 0.05 --cache-dir ${CACHE_DIR}
        --log ${COLD_LOG})
if(NOT cache_cold_out MATCHES "persistent cache: +loaded 0, stored [1-9]")
  message(FATAL_ERROR
      "cold run did not store cache records:\n${cache_cold_out}")
endif()
run_cli(TRUE cache_warm_out
        explore --app url --scale 0.05 --cache-dir ${CACHE_DIR}
        --log ${WARM_LOG})
if(NOT cache_warm_out MATCHES "executed simulations: +0 ")
  message(FATAL_ERROR
      "warm rerun executed simulations:\n${cache_warm_out}")
endif()
file(READ "${COLD_LOG}" cold_log_bytes)
file(READ "${WARM_LOG}" warm_log_bytes)
if(NOT cold_log_bytes STREQUAL warm_log_bytes)
  message(FATAL_ERROR
      "warm-cache rerun log differs from the cold run's")
endif()

# 7. The retired step-2 sharding flags are unknown flags (exit 2, before
#    any work), and the retired segment maintenance ops are unknown
#    cache operations.
foreach(case "--shard;0/2|--shard" "--workers;2|--workers")
  string(REPLACE "|" ";" parts "${case}")
  list(GET parts -1 bad_flag)
  list(REMOVE_AT parts -1)
  execute_process(
      COMMAND ${DDTR_CLI} explore --app url --scale 0.05
              --cache-dir ${CACHE_DIR} ${parts}
      RESULT_VARIABLE retired_result
      OUTPUT_VARIABLE retired_out
      ERROR_VARIABLE retired_err)
  if(NOT retired_result EQUAL 2 OR
     NOT retired_err MATCHES "error: unknown flag ${bad_flag}")
    message(FATAL_ERROR
        "explore ${parts}: expected 'unknown flag ${bad_flag}' and exit 2, "
        "got exit ${retired_result}:\n${retired_out}\n${retired_err}")
  endif()
endforeach()
foreach(op merge gc frobnicate)
  run_cli(FALSE cache_badop_out cache ${op} ${CACHE_DIR})
  if(NOT cache_badop_out MATCHES "unknown cache operation '${op}'")
    message(FATAL_ERROR
        "cache ${op} not reported as unknown:\n${cache_badop_out}")
  endif()
endforeach()

# 8. `ddtr cache stats|verify|clear` on the directory a plain --cache-dir
#    run wrote (section 6): one cache file, its workload and cost-model
#    inventory, a clean verify, then clear removes it.
run_cli(TRUE cache_stats_out cache stats ${CACHE_DIR})
if(NOT cache_stats_out MATCHES "entries" OR
   NOT cache_stats_out MATCHES "URL" OR
   NOT cache_stats_out MATCHES "model fingerprint")
  message(FATAL_ERROR "cache stats lacks the inventory:\n${cache_stats_out}")
endif()
run_cli(TRUE cache_verify_out cache verify ${CACHE_DIR})
if(NOT cache_verify_out MATCHES "cache verify: OK")
  message(FATAL_ERROR "cache verify failed:\n${cache_verify_out}")
endif()
run_cli(TRUE cache_clear_out cache clear ${CACHE_DIR})
if(NOT cache_clear_out MATCHES "removed 1 cache file ")
  message(FATAL_ERROR "cache clear output unexpected:\n${cache_clear_out}")
endif()
if(EXISTS "${CACHE_DIR}/sim_cache.ddtr")
  message(FATAL_ERROR "cache clear left the cache file behind")
endif()

# 9. The retired daemon subcommands and `lint` (the linter is the
#    ddtr_lint binary) are unknown commands: exit 2 with the usage text.
foreach(retired serve submit status stats results shutdown lint)
  execute_process(
      COMMAND ${DDTR_CLI} ${retired} --socket ${WORK_DIR}/none.sock
      RESULT_VARIABLE retired_result
      OUTPUT_VARIABLE retired_out
      ERROR_VARIABLE retired_err)
  if(NOT retired_result EQUAL 2 OR NOT retired_err MATCHES "^usage:")
    message(FATAL_ERROR
        "ddtr ${retired}: expected the usage text and exit 2, got exit "
        "${retired_result}:\n${retired_out}\n${retired_err}")
  endif()
endforeach()

# 10. A traced exploration writes a valid trace that ends with the
#     metrics registry (a `metrics` event naming explore.runs).
set(TRACE_FILE "${WORK_DIR}/explore_trace.json")
file(REMOVE "${TRACE_FILE}")
run_cli(TRUE traced_out
        explore --app url --scale 0.05 --trace ${TRACE_FILE})
run_cli(TRUE tracecheck_out tracecheck ${TRACE_FILE})
if(NOT tracecheck_out MATCHES ": OK")
  message(FATAL_ERROR "tracecheck rejected the trace:\n${tracecheck_out}")
endif()
file(READ "${TRACE_FILE}" trace_text)
string(FIND "${trace_text}" "\"name\":\"metrics\"" metrics_at)
string(FIND "${trace_text}" "\"explore.runs\"" runs_at)
if(metrics_at EQUAL -1 OR runs_at LESS metrics_at)
  message(FATAL_ERROR
      "trace lacks a metrics event carrying explore.runs:\n${trace_text}")
endif()

# 11. An output file that cannot be written fails the command: exit 1,
#     "error: cannot write PATH", and no "wrote" line claiming it.
set(MISSING_DIR "${WORK_DIR}/no/such/dir")
foreach(case
        "explore;--app;url;--scale;0.05;--log;${MISSING_DIR}/x.log|${MISSING_DIR}/x.log"
        "explore;--app;url;--scale;0.05;--csv;${MISSING_DIR}/x|${MISSING_DIR}/x_records.csv"
        "explore;--app;url;--scale;0.05;--trace;${MISSING_DIR}/t.json|${MISSING_DIR}/t.json"
        "tracegen;--preset;nlanr-campus;--packets;10;--out;${MISSING_DIR}/t.trace|${MISSING_DIR}/t.trace")
  string(REPLACE "|" ";" parts "${case}")
  list(GET parts -1 bad_path)
  list(REMOVE_AT parts -1)
  execute_process(
      COMMAND ${DDTR_CLI} ${parts}
      RESULT_VARIABLE unwritable_result
      OUTPUT_VARIABLE unwritable_out
      ERROR_VARIABLE unwritable_err)
  string(FIND "${unwritable_err}" "error: cannot write ${bad_path}" error_at)
  string(FIND "${unwritable_out}${unwritable_err}" "wrote " wrote_at)
  if(NOT unwritable_result EQUAL 1 OR error_at EQUAL -1 OR
     NOT wrote_at EQUAL -1)
    message(FATAL_ERROR
        "ddtr ${parts}: expected 'error: cannot write ${bad_path}', exit 1 "
        "and no 'wrote' line, got exit ${unwritable_result}:\n"
        "${unwritable_out}\n${unwritable_err}")
  endif()
endforeach()

message(STATUS "cli_smoke: all CLI flows passed")
