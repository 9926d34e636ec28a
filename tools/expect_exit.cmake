# Test driver for the tools' exit statuses: runs the command given after
# `--` and fails unless it exits with EXPECT_EXIT and, when EXPECT_OUTPUT
# is set, its stdout + stderr match that regular expression.
#
#   cmake -DEXPECT_EXIT=2 -DEXPECT_OUTPUT=REGEX -P expect_exit.cmake -- CMD ARGS...
set(command)
set(after_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_separator)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(after_separator TRUE)
  endif()
endforeach()

execute_process(COMMAND ${command} RESULT_VARIABLE status
  OUTPUT_VARIABLE out ERROR_VARIABLE err)
message("${out}${err}")
if(NOT "${status}" STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "exit status ${status}, expected ${EXPECT_EXIT}")
endif()
if(NOT "${out}${err}" MATCHES "${EXPECT_OUTPUT}")
  message(FATAL_ERROR "output does not match '${EXPECT_OUTPUT}'")
endif()
