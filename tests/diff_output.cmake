# Runs BIN and compares its stdout with the file GOLDEN byte for byte.
# On a mismatch the output is kept in ACTUAL and a unified diff is
# printed.
#
#   cmake -DBIN=<program> -DGOLDEN=<file> -DACTUAL=<file> \
#         -P diff_output.cmake
execute_process(COMMAND ${BIN}
    OUTPUT_VARIABLE actual
    RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${BIN} exited with status ${status}")
endif()
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
    file(WRITE ${ACTUAL} "${actual}")
    execute_process(COMMAND diff -u ${GOLDEN} ${ACTUAL})
    message(FATAL_ERROR "output of ${BIN} differs from ${GOLDEN} "
                        "(kept in ${ACTUAL})")
endif()
