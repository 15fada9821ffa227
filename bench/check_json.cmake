# Run BENCH with its JSON written to GOT, then byte-compare GOT with
# the committed WANT (bench/CMakeLists.txt, tfx_check_bench_json).
execute_process(COMMAND ${BENCH} --json ${GOT}
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${GOT} ${WANT}
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "${GOT} differs from the committed ${WANT}; "
                      "regenerate it with: ${BENCH} --json ${WANT}")
endif()
