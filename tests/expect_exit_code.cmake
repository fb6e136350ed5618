# Runs BINARY with the space-separated ARGS and fails unless it exits with
# EXPECTED and its stderr matches STDERR_REGEX. Usage:
#   cmake -DBINARY=... -DARGS="..." -DEXPECTED=1 -DSTDERR_REGEX=... -P expect_exit_code.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BINARY}" ${args} RESULT_VARIABLE code OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT code STREQUAL "${EXPECTED}")
  message(FATAL_ERROR "${BINARY} ${ARGS}: exit ${code}, expected ${EXPECTED}\n${out}${err}")
endif()
if(NOT err MATCHES "${STDERR_REGEX}")
  message(FATAL_ERROR "${BINARY} ${ARGS}: stderr does not match '${STDERR_REGEX}':\n${err}")
endif()
