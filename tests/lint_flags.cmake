# ddtr_lint's flag contract, run as a ctest: the linter takes
# --repo-root, --update-accounting and --help only. Any other flag,
# including the retired --fix, --dry-run, --diff REF and
# --compile-commands FILE, prints the usage text and exits 2 before
# anything is scanned.
#
# Invoked by CMakeLists.txt as:
#   cmake -DDDTR_LINT=<path-to-ddtr_lint> -DREPO_ROOT=<source-dir>
#         -P lint_flags.cmake

if(NOT DEFINED DDTR_LINT OR NOT DEFINED REPO_ROOT)
  message(FATAL_ERROR "lint_flags.cmake needs -DDDTR_LINT=... -DREPO_ROOT=...")
endif()

function(expect_usage)
  execute_process(
      COMMAND ${DDTR_LINT} --repo-root ${REPO_ROOT} ${ARGN}
      RESULT_VARIABLE result
      OUTPUT_VARIABLE output
      ERROR_VARIABLE errout)
  if(NOT result EQUAL 2 OR NOT errout MATCHES "usage: ddtr_lint"
     OR output MATCHES "scanned")
    message(FATAL_ERROR
        "ddtr_lint ${ARGN}: expected the usage text and exit 2, got exit "
        "${result}:\n${output}\n${errout}")
  endif()
endfunction()

expect_usage(--help)
expect_usage(--fix)
expect_usage(--dry-run)
expect_usage(--diff HEAD)
expect_usage(--compile-commands compile_commands.json)
