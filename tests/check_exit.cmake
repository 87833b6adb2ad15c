# Exit-code matrix helper: runs ${PARTITA_BIN} ${ARGS} and fails unless the
# exit code is exactly ${EXPECTED}. The comparison is STREQUAL on purpose --
# a crash or signal yields a non-numeric RESULT_VARIABLE ("Segmentation
# fault") that must never satisfy a numeric expectation. FAULT, when set,
# arms the named fault-injection site via PARTITA_FAULT (see
# support/fault_injection.hpp). WORKDIR, when set, is emptied and the
# command runs inside it; ABSENT is then a glob that must match no file there
# afterwards.
if(FAULT)
  set(ENV{PARTITA_FAULT} "${FAULT}")
endif()
if(WORKDIR)
  file(REMOVE_RECURSE "${WORKDIR}")
  file(MAKE_DIRECTORY "${WORKDIR}")
else()
  set(WORKDIR ".")
endif()
execute_process(COMMAND ${PARTITA_BIN} ${ARGS}
  WORKING_DIRECTORY "${WORKDIR}"
  RESULT_VARIABLE rc
  OUTPUT_QUIET ERROR_QUIET)
if(NOT rc STREQUAL "${EXPECTED}")
  message(FATAL_ERROR
    "expected exit ${EXPECTED}, got '${rc}' for: ${PARTITA_BIN} ${ARGS}")
endif()
if(ABSENT)
  file(GLOB left "${WORKDIR}/${ABSENT}")
  if(left)
    message(FATAL_ERROR "${PARTITA_BIN} ${ARGS} left ${left} behind")
  endif()
endif()
