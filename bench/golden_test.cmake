# Runs one figure binary and requires its stdout to equal a committed golden
# output (bench/golden/) byte for byte. The figure binaries print simulated
# cycles only, which are deterministic, so any difference is a change in
# what the interpreter computes or charges.
#
#   cmake -DBIN=<figure binary> -DGOLDEN=<golden .txt> [-DARGS=<a;b>]
#         -P golden_test.cmake
#
# There is deliberately no update mode: a change that moves a golden
# regenerates the file by hand and says why in CHANGES.md.
execute_process(COMMAND ${BIN} ${ARGS}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} ${ARGS} exited ${rc}:\n${err}")
endif()
file(READ ${GOLDEN} want)
if(NOT out STREQUAL want)
  get_filename_component(name ${GOLDEN} NAME)
  set(actual ${CMAKE_CURRENT_BINARY_DIR}/${name}.actual)
  file(WRITE ${actual} "${out}")
  message(FATAL_ERROR "stdout of ${BIN} ${ARGS} differs from the golden; "
                      "compare with: diff ${GOLDEN} ${actual}")
endif()
