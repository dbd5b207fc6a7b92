# Output pins of the deterministic experiment binaries. For every
# GOLDEN_DIR/<binary>.txt, runs BENCH_DIR/<binary> without arguments and
# fails unless its stdout equals that file byte for byte. Each pinned
# output is the same in the RelWithDebInfo, Release and Debug builds and
# on one core or many; binaries that print wall-clock measurements (fig2's
# native table, the throughput benches) are not pinned.
#
# A change that moves a pinned output on purpose re-pins it with
#   ./build/bench/<binary> > bench/golden/<binary>.txt

file(GLOB Goldens "${GOLDEN_DIR}/*.txt")
if(NOT Goldens)
  message(FATAL_ERROR "no golden outputs under ${GOLDEN_DIR}")
endif()
file(MAKE_DIRECTORY "${WORKDIR}")
find_program(DIFF diff)

set(Failed "")
foreach(Golden ${Goldens})
  get_filename_component(Name "${Golden}" NAME_WE)
  set(Out "${WORKDIR}/${Name}.txt")
  execute_process(COMMAND "${BENCH_DIR}/${Name}" OUTPUT_FILE "${Out}"
                  RESULT_VARIABLE Rc)
  if(NOT Rc EQUAL 0)
    list(APPEND Failed "${Name} (rc ${Rc})")
    continue()
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                          "${Golden}" "${Out}"
                  RESULT_VARIABLE Differs)
  if(NOT Differs EQUAL 0)
    list(APPEND Failed "${Name}")
    if(DIFF)
      execute_process(COMMAND ${DIFF} -u "${Golden}" "${Out}")
    endif()
  endif()
endforeach()

if(Failed)
  message(FATAL_ERROR "stdout differs from bench/golden: ${Failed}")
endif()
