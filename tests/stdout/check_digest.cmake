# Runs one result bench or example at default settings and checks the
# SHA-256 of its stdout against the committed digest file.
#
#   cmake -DBINARY=<path> -DNAME=<name> -DDIGESTS=<digest file>
#         -DWORK_DIR=<scratch dir> -P check_digest.cmake
#
# Every P2P_* variable of the calling environment is cleared first, so the
# binary runs at its defaults. The test fails on a non-zero exit or a digest
# that differs from the file's line for NAME; on a mismatch it prints the new
# digest, and the stdout stays in WORK_DIR for a diff.
foreach(var BINARY NAME DIGESTS WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_digest.cmake: -D${var}=... is required")
  endif()
endforeach()

execute_process(COMMAND ${CMAKE_COMMAND} -E environment OUTPUT_VARIABLE env_dump)
string(REGEX MATCHALL "(^|\n)P2P_[A-Za-z0-9_]*=" p2p_vars "${env_dump}")
foreach(assignment IN LISTS p2p_vars)
  string(REGEX REPLACE "^\n?(P2P_[A-Za-z0-9_]*)=$" "\\1" var "${assignment}")
  unset(ENV{${var}})
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(stdout_file "${WORK_DIR}/stdout.txt")
execute_process(COMMAND "${BINARY}"
  WORKING_DIRECTORY "${WORK_DIR}"
  OUTPUT_FILE "${stdout_file}"
  RESULT_VARIABLE exit_code)
if(NOT exit_code STREQUAL "0")
  message(FATAL_ERROR "${NAME} exited with ${exit_code}")
endif()

file(SHA256 "${stdout_file}" actual)
file(STRINGS "${DIGESTS}" lines REGEX "^[0-9a-f]+  ${NAME}$")
if(NOT lines)
  message(FATAL_ERROR "${NAME}: no digest line in ${DIGESTS} (new digest ${actual})")
endif()
string(REGEX REPLACE "  .*" "" expected "${lines}")
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "${NAME}: stdout digest changed\n"
                      "  expected ${expected}\n"
                      "  new      ${actual}\n"
                      "stdout kept in ${stdout_file}")
endif()
message(STATUS "${NAME}: stdout matches ${actual}")
