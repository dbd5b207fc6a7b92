# CTest script exercising the engine-backed `partitioner --serve` batch
# mode end to end: build models, answer a request batch (including a
# per-request algorithm override and an explicit reload), hot-reload a
# model that changed on disk between requests, and check that bad
# requests and mistyped flags fail loudly.
file(REMOVE_RECURSE ${WORKDIR})
file(MAKE_DIRECTORY ${WORKDIR})

function(run_checked)
  execute_process(COMMAND ${ARGV} RESULT_VARIABLE Rc
                  OUTPUT_VARIABLE Out ERROR_VARIABLE Err)
  if(NOT Rc EQUAL 0)
    message(FATAL_ERROR "command failed (${Rc}): ${ARGV}\n${Out}\n${Err}")
  endif()
  set(LAST_OUTPUT "${Out}" PARENT_SCOPE)
endfunction()

run_checked(${BUILDER} --source two-device --rank 0 --min 100 --max 4000
            --points 8 --output ${WORKDIR}/dev0.fpm)
run_checked(${BUILDER} --source two-device --rank 1 --min 100 --max 4000
            --points 8 --output ${WORKDIR}/dev1.fpm)

# A batch of requests: default algorithm, an override, a forced reload.
file(WRITE ${WORKDIR}/requests.txt
"# engine smoke batch
3000
1000 numerical
reload
500 constant
")
run_checked(${PARTITIONER} --serve ${WORKDIR}/requests.txt
            ${WORKDIR}/dev0.fpm ${WORKDIR}/dev1.fpm)
foreach(Expected
        "geometric partitioning of 3000 units"
        "numerical partitioning of 1000 units"
        "constant partitioning of 500 units"
        "# served 3 request\\(s\\), 0 failed")
  if(NOT LAST_OUTPUT MATCHES "${Expected}")
    message(FATAL_ERROR "serve output missing '${Expected}':\n"
                        "${LAST_OUTPUT}")
  endif()
endforeach()

# Every answered request's units must sum to its total.
string(REGEX MATCHALL "units +([0-9]+)" Matches "${LAST_OUTPUT}")
set(Sum 0)
foreach(M ${Matches})
  string(REGEX REPLACE "units +" "" U "${M}")
  math(EXPR Sum "${Sum} + ${U}")
endforeach()
if(NOT Sum EQUAL 4500)
  message(FATAL_ERROR "served units sum to ${Sum}, expected 4500:\n"
                      "${LAST_OUTPUT}")
endif()

# One renderer: the one-shot --total answer is exactly the block that
# --serve prints for the same total.
string(REGEX MATCH "# geometric partitioning of 3000 units[^#]*# max predicted time: [^\n]*\n"
       ServeBlock "${LAST_OUTPUT}")
set(ServeOutput "${LAST_OUTPUT}")
run_checked(${PARTITIONER} --total 3000 ${WORKDIR}/dev0.fpm ${WORKDIR}/dev1.fpm)
if(ServeBlock STREQUAL "" OR NOT LAST_OUTPUT STREQUAL ServeBlock)
  message(FATAL_ERROR "--total 3000 differs from the --serve block:\n"
                      "--- one-shot ---\n${LAST_OUTPUT}\n"
                      "--- serve block ---\n${ServeBlock}")
endif()
set(LAST_OUTPUT "${ServeOutput}")

# Serve answers from one long-lived session: the same batch answered
# twice must be deterministic. (Mid-run hot reload is unit-tested in
# SessionTest; a sequential script cannot rewrite a file between two
# requests of one invocation.)
set(FirstRun "${LAST_OUTPUT}")
run_checked(${PARTITIONER} --serve ${WORKDIR}/requests.txt
            ${WORKDIR}/dev0.fpm ${WORKDIR}/dev1.fpm)
if(NOT LAST_OUTPUT STREQUAL FirstRun)
  message(FATAL_ERROR "serve output is not deterministic")
endif()

# A degraded batch still answers over the surviving ranks: the missing
# model's rank is excluded with a warning and holds zero units.
file(WRITE ${WORKDIR}/degraded.txt "600\n")
run_checked(${PARTITIONER} --serve ${WORKDIR}/degraded.txt
            --allow-degraded ${WORKDIR}/dev0.fpm ${WORKDIR}/missing.fpm)
if(NOT LAST_OUTPUT MATCHES "rank 0 +units +600")
  message(FATAL_ERROR "degraded serve did not give rank 0 the full "
                      "total:\n${LAST_OUTPUT}")
endif()
if(NOT LAST_OUTPUT MATCHES "rank 1 +units +0")
  message(FATAL_ERROR "degraded serve did not zero the excluded rank:\n"
                      "${LAST_OUTPUT}")
endif()

# A malformed request line is skipped-and-recorded: the error record on
# stdout names the line, the rest of the batch is still answered, and
# the exit code is nonzero because a request failed.
file(WRITE ${WORKDIR}/bad.txt "3000\nnonsense 7\n700\n")
execute_process(COMMAND ${PARTITIONER} --serve ${WORKDIR}/bad.txt
                ${WORKDIR}/dev0.fpm RESULT_VARIABLE Rc
                OUTPUT_VARIABLE Out ERROR_QUIET)
if(Rc EQUAL 0)
  message(FATAL_ERROR "partitioner exited 0 despite a malformed request")
endif()
if(NOT Out MATCHES "# error: request line 2")
  message(FATAL_ERROR "malformed request record lacks the line number:\n"
                      "${Out}")
endif()
if(NOT Out MATCHES "partitioning of 700 units")
  message(FATAL_ERROR "batch did not continue past the malformed line:\n"
                      "${Out}")
endif()
if(NOT Out MATCHES "served 2 request\\(s\\), 1 failed")
  message(FATAL_ERROR "serve summary miscounts the malformed line:\n"
                      "${Out}")
endif()

# The same batch through the concurrent server (--workers) must answer
# with byte-identical partition lines plus its own summary footer.
run_checked(${PARTITIONER} --serve ${WORKDIR}/requests.txt
            ${WORKDIR}/dev0.fpm ${WORKDIR}/dev1.fpm)
set(SerialOut "${LAST_OUTPUT}")
run_checked(${PARTITIONER} --serve ${WORKDIR}/requests.txt --workers 2
            --queue 8 ${WORKDIR}/dev0.fpm ${WORKDIR}/dev1.fpm)
foreach(Expected
        "geometric partitioning of 3000 units"
        "numerical partitioning of 1000 units"
        "constant partitioning of 500 units"
        "# served 3 request\\(s\\), 0 failed, 0 rejected"
        "# server: 2 workers, queue 8")
  if(NOT LAST_OUTPUT MATCHES "${Expected}")
    message(FATAL_ERROR "concurrent serve output missing '${Expected}':\n"
                        "${LAST_OUTPUT}")
  endif()
endforeach()
# Strip both summaries and compare the answer bodies byte for byte.
string(REGEX REPLACE "# served [^\n]*\n" "" SerialBody "${SerialOut}")
string(REGEX REPLACE "# (served|server)[^\n]*\n" "" ConcurrentBody
       "${LAST_OUTPUT}")
if(NOT ConcurrentBody STREQUAL SerialBody)
  message(FATAL_ERROR "concurrent serve diverged from sequential serve:\n"
                      "--- sequential ---\n${SerialBody}\n"
                      "--- concurrent ---\n${ConcurrentBody}")
endif()

# --stats surfaces the data-movement cost of the answer: the handout
# broadcast plus the adoption replay (minimal-move redistribute and one
# halo sweep), both zero-copy.
run_checked(${PARTITIONER} --total 2000 --stats
            ${WORKDIR}/dev0.fpm ${WORKDIR}/dev1.fpm)
if(NOT LAST_OUTPUT MATCHES
   "adopting the distribution from an even split: redistribute bytes ([0-9]+) \\(analytic minimum ([0-9]+)\\), halo bytes [0-9]+ per width-1 sweep, bytes physically copied ([0-9]+)")
  message(FATAL_ERROR "--stats lacks the adoption line:\n${LAST_OUTPUT}")
endif()
if(NOT CMAKE_MATCH_1 EQUAL CMAKE_MATCH_2)
  message(FATAL_ERROR "adoption redistribute moved ${CMAKE_MATCH_1} bytes, "
                      "analytic minimum is ${CMAKE_MATCH_2}:\n${LAST_OUTPUT}")
endif()
if(NOT CMAKE_MATCH_3 EQUAL 0)
  message(FATAL_ERROR "adoption replay physically copied ${CMAKE_MATCH_3} "
                      "bytes on a zero-copy path:\n${LAST_OUTPUT}")
endif()

# Strict option parsing: mistyped flags and non-numeric values fail.
execute_process(COMMAND ${PARTITIONER} --total ten ${WORKDIR}/dev0.fpm
                RESULT_VARIABLE Rc OUTPUT_QUIET ERROR_VARIABLE Err)
if(Rc EQUAL 0 OR NOT Err MATCHES "expected an integer")
  message(FATAL_ERROR "partitioner accepted --total ten:\n${Err}")
endif()
execute_process(COMMAND ${PARTITIONER} --total 100 --exlpain
                ${WORKDIR}/dev0.fpm RESULT_VARIABLE Rc
                OUTPUT_QUIET ERROR_VARIABLE Err)
if(Rc EQUAL 0 OR NOT Err MATCHES "unknown option --exlpain")
  message(FATAL_ERROR "partitioner accepted a mistyped flag:\n${Err}")
endif()
# Serve knobs out of range are usage errors, not silently replaced.
foreach(Bad "--workers;-2;--workers must be non-negative"
            "--workers;4294967297;--workers must be at most 2147483647"
            "--queue;-5;--queue must be positive"
            "--queue;0;--queue must be positive"
            "--deadline-ms;-1;--deadline-ms must be non-negative"
            "--deadline-ms;18446744073710;--deadline-ms must be at most")
  list(GET Bad 0 Flag)
  list(GET Bad 1 Value)
  list(GET Bad 2 Message)
  execute_process(COMMAND ${PARTITIONER} --serve ${WORKDIR}/requests.txt
                  ${Flag} ${Value} ${WORKDIR}/dev0.fpm
                  RESULT_VARIABLE Rc OUTPUT_QUIET ERROR_VARIABLE Err)
  if(NOT Rc EQUAL 2 OR NOT Err MATCHES "error: ${Message}")
    message(FATAL_ERROR "partitioner accepted ${Flag} ${Value} "
                        "(rc ${Rc}):\n${Err}")
  endif()
endforeach()
# The partitioner runs no balanced loop, so it takes no equalization
# flags: each is an unknown option (OptionsTest covers non-finite
# checkedDouble input).
foreach(Bad "--equalize;arbitrated" "--imbalance-threshold;nan"
            "--cooldown;7")
  list(GET Bad 0 Flag)
  list(GET Bad 1 Value)
  execute_process(COMMAND ${PARTITIONER} --total 100 ${Flag} ${Value}
                  ${WORKDIR}/dev0.fpm RESULT_VARIABLE Rc
                  OUTPUT_QUIET ERROR_VARIABLE Err)
  if(NOT Rc EQUAL 2 OR NOT Err MATCHES "error: unknown option ${Flag}\n")
    message(FATAL_ERROR "partitioner accepted ${Flag} ${Value} "
                        "(rc ${Rc}):\n${Err}")
  endif()
endforeach()
execute_process(COMMAND ${BUILDER} --points ten RESULT_VARIABLE Rc
                OUTPUT_QUIET ERROR_VARIABLE Err)
if(Rc EQUAL 0 OR NOT Err MATCHES "expected an integer")
  message(FATAL_ERROR "builder accepted --points ten:\n${Err}")
endif()
# Builder settings out of range fail before they are narrowed or
# measured with, naming the option.
foreach(Bad "--points;3000000000;--points must be at most 2147483647"
            "--points;4294967297;--points must be at most 2147483647"
            "--jobs;3000000000;--jobs must be at most 2147483647"
            "--jobs;4294967297;--jobs must be at most 2147483647"
            "--threads;4294967297;--threads must be at most 2147483647"
            "--reps-min;4294967297;--reps-min must be at most 2147483647"
            "--reps-min;-5;--reps-min must be positive"
            "--reps-max;0;--reps-max must be positive"
            "--reps-max;2;--reps-max must be at least --reps-min"
            "--rank;4294967296;rank 4294967296 out of range"
            "--time-limit;-1;--time-limit must be positive"
            "--rel-err;0;--rel-err must be positive"
            "--noise;-1;--noise must be non-negative"
            "--min;nan;option --min: expected a finite number"
            "--max;nan;option --max: expected a finite number"
            "--max;inf;option --max: expected a finite number")
  list(GET Bad 0 Flag)
  list(GET Bad 1 Value)
  list(GET Bad 2 Message)
  execute_process(COMMAND ${BUILDER} --source two-device ${Flag} ${Value}
                  --output ${WORKDIR}/rejected.fpm
                  RESULT_VARIABLE Rc OUTPUT_QUIET ERROR_VARIABLE Err)
  if(NOT Rc EQUAL 2 OR NOT Err MATCHES "error: ${Message}")
    message(FATAL_ERROR "builder accepted ${Flag} ${Value} "
                        "(rc ${Rc}):\n${Err}")
  endif()
endforeach()
message(STATUS "engine smoke OK")
