# Tool-level regression for the landscape tools, run as a CMake script so
# ctest needs nothing beyond cmake:
#
#   cmake -DSIMULATE=... -DCONVERT=... -DANALYZE=... -DSTREAM=...
#         -DCLUSTER=... -DWORK_DIR=... -P landscape_regression.cmake
#
# One small simulated newGoZ trace, written in both codecs, is charted by
# botmeter_analyze, botmeter_stream and botmeter_cluster (1 and 3 shards).
# Every --history-out series must be byte-equal, stream and cluster stdout
# must be byte-equal (also on a compact-state run that spills and saturates
# its sketches), and every tool's tallies must add up.
foreach(var SIMULATE CONVERT ANALYZE STREAM CLUSTER WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "landscape_regression: -D${var}=... is required")
  endif()
endforeach()
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# run(<name> <command...>): stdout to <name>.out, stderr to <name>.err.
function(run name)
  execute_process(COMMAND ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    OUTPUT_FILE "${WORK_DIR}/${name}.out"
    ERROR_FILE "${WORK_DIR}/${name}.err"
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    file(READ "${WORK_DIR}/${name}.err" err)
    message(FATAL_ERROR "${name} exited ${rc}:\n${err}")
  endif()
endfunction()

function(expect_same a b)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
    "${WORK_DIR}/${a}" "${WORK_DIR}/${b}" RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${a} and ${b} differ (in ${WORK_DIR})")
  endif()
endfunction()

# Sum of the final table's matched_lookups column in <name>.out.
function(table_matched name out_var)
  file(READ "${WORK_DIR}/${name}.out" text)
  string(REPLACE "[" "(" text "${text}")
  string(REPLACE "]" ")" text "${text}")
  string(REGEX MATCHALL "server-[0-9]+ +[^\n]*" rows "${text}")
  set(sum 0)
  foreach(row IN LISTS rows)
    string(REGEX MATCH "[0-9]+$" matched "${row}")
    math(EXPR sum "${sum} + ${matched}")
  endforeach()
  set(${out_var} ${sum} PARENT_SCOPE)
endfunction()

# The stream and cluster tally line must add up and agree with the batch
# count of the same trace.
function(expect_tally name tuples matched)
  file(READ "${WORK_DIR}/${name}.err" err)
  if(NOT err MATCHES "ingested ([0-9]+) tuples \\([0-9]+/s\\): ([0-9]+) matched, ([0-9]+) unmatched, ([0-9]+) late-dropped")
    message(FATAL_ERROR "${name}: no tally line in:\n${err}")
  endif()
  set(got_tuples ${CMAKE_MATCH_1})
  set(got_matched ${CMAKE_MATCH_2})
  math(EXPR sum "${CMAKE_MATCH_2} + ${CMAKE_MATCH_3}")
  if(NOT got_tuples EQUAL tuples OR NOT got_matched EQUAL matched OR
     NOT sum EQUAL got_tuples OR NOT CMAKE_MATCH_4 EQUAL 0)
    message(FATAL_ERROR "${name}: tally does not add up to ${tuples} tuples, "
                        "${matched} matched:\n${err}")
  endif()
endfunction()

run(simulate "${SIMULATE}" --family newGoZ --bots 96 --servers 4 --epochs 2
    --seed 7)
file(RENAME "${WORK_DIR}/simulate.out" "${WORK_DIR}/trace.tsv")
run(convert "${CONVERT}" --to binary --in trace.tsv --out trace.btb)

set(meter --family newGoZ --servers 4 --epochs 2)
foreach(codec tsv btb)
  set(input ${meter} --trace trace.${codec})
  run(analyze.${codec} "${ANALYZE}" ${input} --history-out analyze.${codec}.json)
  run(stream.${codec} "${STREAM}" ${input} --history-out stream.${codec}.json)
  foreach(shards 1 3)
    run(cluster${shards}.${codec} "${CLUSTER}" ${input} --shards ${shards}
        --history-out cluster${shards}.${codec}.json)
  endforeach()

  foreach(tool analyze stream cluster1 cluster3)
    expect_same(analyze.tsv.json ${tool}.${codec}.json)
  endforeach()
  foreach(tool stream cluster1 cluster3)
    expect_same(stream.tsv.out ${tool}.${codec}.out)
  endforeach()

  file(READ "${WORK_DIR}/analyze.${codec}.out" head)
  if(NOT head MATCHES "^# estimator: [^,]+, ([0-9]+) lookups analyzed")
    message(FATAL_ERROR "analyze.${codec}: no '# estimator' header")
  endif()
  set(tuples ${CMAKE_MATCH_1})
  table_matched(analyze.${codec} matched)
  foreach(name stream.${codec} cluster1.${codec} cluster3.${codec})
    table_matched(${name} table)
    if(NOT table EQUAL matched)
      message(FATAL_ERROR "${name}: table matches ${table} lookups, analyze ${matched}")
    endif()
    expect_tally(${name} ${tuples} ${matched})
  endforeach()
endforeach()

# Compact state small enough to spill every cell and saturate its sketch:
# the approximate bands must print "~" in both tools alike.
set(compact ${meter} --trace trace.btb --compact-state --compact-spill 64
    --compact-kmv-k 16)
run(stream.compact "${STREAM}" ${compact} --history-out stream.compact.json)
run(cluster3.compact "${CLUSTER}" ${compact} --shards 3
    --history-out cluster3.compact.json)
expect_same(stream.compact.out cluster3.compact.out)
expect_same(stream.compact.json cluster3.compact.json)
expect_tally(stream.compact ${tuples} ${matched})
expect_tally(cluster3.compact ${tuples} ${matched})
file(READ "${WORK_DIR}/stream.compact.out" compact_out)
file(READ "${WORK_DIR}/stream.compact.err" compact_err)
if(NOT compact_out MATCHES "~\\[" OR NOT compact_err MATCHES "compact state: [1-9]")
  message(FATAL_ERROR "compact run did not spill and saturate:\n${compact_out}")
endif()
