# Runs CLI with the |-separated ARGS and passes only on exit status 1 with
# a single `tdmd_cli: ...` diagnostic line on stderr.  ctest's
# PASS_REGULAR_EXPRESSION would ignore the exit status, letting an abort
# (134) or a usage error (2) through.
#
#   cmake -DCLI=<tdmd_cli> -DARGS=<a|b|c> -P expect_diagnostic.cmake
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND ${CLI} ${args}
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT status STREQUAL "1")
  message(FATAL_ERROR "expected exit 1, got '${status}'\nstderr:\n${err}")
endif()
if(NOT err MATCHES "^tdmd_cli: [^\n]+\n$")
  message(FATAL_ERROR "expected one 'tdmd_cli:' line, got:\n${err}")
endif()
message(STATUS "${err}")
