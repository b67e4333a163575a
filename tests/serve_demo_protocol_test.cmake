# Drives serve_demo's stdin line protocol (examples/serve_demo.cpp) with the
# lines in INPUT and checks each response line against the regex on the
# same line of EXPECTED. Malformed lines must answer "ERR usage", never a
# silent OK, and nothing may follow QUIT.
#
#   cmake -DSERVE_DEMO=<binary> -DINPUT=<file> -DEXPECTED=<file> -P <this>
execute_process(
  COMMAND ${SERVE_DEMO}
  INPUT_FILE ${INPUT}
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "serve_demo exited with ${rc}\n${err}")
endif()
string(REGEX REPLACE "\n$" "" out "${out}")
string(REPLACE "\n" ";" got "${out}")
file(STRINGS ${EXPECTED} want)
list(LENGTH got n_got)
list(LENGTH want n_want)
if(NOT n_got EQUAL n_want)
  message(FATAL_ERROR
    "expected ${n_want} response lines, got ${n_got}:\n${out}")
endif()
math(EXPR last "${n_want} - 1")
foreach(i RANGE ${last})
  list(GET got ${i} line)
  list(GET want ${i} pattern)
  if(NOT line MATCHES "${pattern}")
    math(EXPR lineno "${i} + 1")
    message(FATAL_ERROR
      "response ${lineno} '${line}' does not match '${pattern}'")
  endif()
endforeach()
message(STATUS "serve_demo protocol: ${n_got} responses as expected")
