# Run BENCH with its JSON written to GOT, then compare GOT with the
# committed WANT (bench/CMakeLists.txt, tfx_check_bench_json). Without
# MEMBERS the files must match byte for byte; with MEMBERS (a
# comma-separated list of top-level members) only those members are
# compared, as JSON values, so host-timed members may differ.
execute_process(COMMAND ${BENCH} --json ${GOT}
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()
if(MEMBERS)
  file(READ ${GOT} got)
  file(READ ${WANT} want)
  string(REPLACE "," ";" MEMBERS "${MEMBERS}")
  foreach(member IN LISTS MEMBERS)
    string(JSON got_value GET "${got}" ${member})
    string(JSON want_value GET "${want}" ${member})
    string(JSON same EQUAL "${got_value}" "${want_value}")
    if(NOT same)
      message(FATAL_ERROR "${GOT}: member ${member} differs from the "
                          "committed ${WANT}")
    endif()
  endforeach()
  return()
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${GOT} ${WANT}
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "${GOT} differs from the committed ${WANT}; "
                      "regenerate it with: ${BENCH} --json ${WANT}")
endif()
