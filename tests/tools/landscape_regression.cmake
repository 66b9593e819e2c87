# Tool-level regression for the landscape tools, run as a CMake script so
# ctest needs nothing beyond cmake:
#
#   cmake -DSIMULATE=... -DCONVERT=... -DANALYZE=... -DSTREAM=...
#         -DCLUSTER=... -DWORK_DIR=... -P landscape_regression.cmake
#
# Three simulated traces, each written in both codecs, are charted by
# botmeter_analyze, botmeter_stream and botmeter_cluster (1 and 3 shards): a
# small newGoZ trace; the same trace with a benign twin after every line
# (several text read buffers, half of it unmatched); and a sliding-window
# Ranbyus trace. Every --history-out series must be byte-equal, stream and
# cluster stdout must be byte-equal (also on a compact-state run that spills
# and saturates its sketches), and every tool's tallies must add up.
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

# chart(<name> <meter flags...>): chart <name>.tsv and its binary conversion
# <name>.btb with every tool. Every history must equal analyze's on the text
# trace, stream and cluster stdout must be byte-equal, and every tally must
# add up to analyze's count. Sets `tuples` and `matched` in the caller.
function(chart name)
  run(convert.${name} "${CONVERT}" --to binary --in ${name}.tsv
      --out ${name}.btb)
  foreach(codec tsv btb)
    set(input ${ARGN} --trace ${name}.${codec})
    set(tag ${name}.${codec})
    run(analyze.${tag} "${ANALYZE}" ${input} --history-out analyze.${tag}.json)
    run(stream.${tag} "${STREAM}" ${input} --history-out stream.${tag}.json)
    foreach(shards 1 3)
      run(cluster${shards}.${tag} "${CLUSTER}" ${input} --shards ${shards}
          --history-out cluster${shards}.${tag}.json)
    endforeach()

    foreach(tool analyze stream cluster1 cluster3)
      expect_same(analyze.${name}.tsv.json ${tool}.${tag}.json)
    endforeach()
    foreach(tool stream cluster1 cluster3)
      expect_same(stream.${name}.tsv.out ${tool}.${tag}.out)
    endforeach()

    file(READ "${WORK_DIR}/analyze.${tag}.out" head)
    if(NOT head MATCHES "^# estimator: [^,]+, ([0-9]+) lookups analyzed")
      message(FATAL_ERROR "analyze.${tag}: no '# estimator' header")
    endif()
    set(tuples ${CMAKE_MATCH_1})
    table_matched(analyze.${tag} matched)
    foreach(tool stream cluster1 cluster3)
      table_matched(${tool}.${tag} table)
      if(NOT table EQUAL matched)
        message(FATAL_ERROR "${tool}.${tag}: table matches ${table} lookups, analyze ${matched}")
      endif()
      expect_tally(${tool}.${tag} ${tuples} ${matched})
    endforeach()
  endforeach()
  set(tuples ${tuples} PARENT_SCOPE)
  set(matched ${matched} PARENT_SCOPE)
endfunction()

set(meter --family newGoZ --servers 4 --epochs 2)
run(simulate "${SIMULATE}" --family newGoZ --bots 96 --servers 4 --epochs 2
    --seed 7)
file(RENAME "${WORK_DIR}/simulate.out" "${WORK_DIR}/trace.tsv")
chart(trace ${meter})
set(bot_tuples ${tuples})
set(bot_matched ${matched})

# The same lookups with one benign (unmatched) twin after every line, CRLF
# endings on the twins: several text read buffers of mixed traffic.
file(READ "${WORK_DIR}/trace.tsv" text)
string(REGEX REPLACE "([0-9]+)\t([0-9]+)\t([^\n]+)\n"
       "\\1\t\\2\t\\3\n\\1\t\\2\tbenign.\\3.example\r\n" text "${text}")
file(WRITE "${WORK_DIR}/mixed.tsv" "${text}")
file(SIZE "${WORK_DIR}/mixed.tsv" mixed_bytes)
if(mixed_bytes LESS 1048576)
  message(FATAL_ERROR "mixed.tsv is only ${mixed_bytes} bytes")
endif()
chart(mixed ${meter})
math(EXPR twice "2 * ${bot_tuples}")
if(NOT tuples EQUAL twice OR NOT matched EQUAL bot_matched)
  message(FATAL_ERROR "mixed trace: ${tuples} tuples, ${matched} matched; "
                      "expected ${twice} and ${bot_matched}")
endif()

# A sliding-window family: a domain sits in several epochs' pools, so
# attribution picks the closest one.
set(ranbyus --family Ranbyus --servers 4 --epochs 3 --first-epoch 40)
run(simulate.ranbyus "${SIMULATE}" ${ranbyus} --bots 16 --seed 11)
file(RENAME "${WORK_DIR}/simulate.ranbyus.out" "${WORK_DIR}/ranbyus.tsv")
chart(ranbyus ${ranbyus})
if(matched EQUAL 0)
  message(FATAL_ERROR "ranbyus trace matched nothing")
endif()

set(tuples ${bot_tuples})
set(matched ${bot_matched})
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
