# Every tool's command line, the same three ways, and the run tools' output
# files:
#
#   cmake -DTOOLS=<directory of the dtnsim-* programs> -P tests/tool_cli.cmake
#
# --help exits 0; a value-taking flag with no value exits 2 with "missing
# value for <flag>"; an unknown flag exits 2 and names it. dtnsim-advisor is
# also given a path its testbed lacks, which exits 2 with the lookup's
# message. dtnsim-ss, -perf and dtnsim-scenario --run write every output
# file their line names, and their replays render the run records. An
# output file that cannot be written makes its tool exit non-zero naming
# it. Tools run from the repository root; their files go under
# TOOLS/tool_cli_out. Each failing case is reported; the script fails if
# any did.
get_filename_component(root ${CMAKE_CURRENT_LIST_DIR} DIRECTORY)

function(expect tool code text)
  execute_process(COMMAND ${TOOLS}/dtnsim-${tool} ${ARGN} WORKING_DIRECTORY ${root}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  string(FIND "${out}${err}" "${text}" at)
  if(NOT rc STREQUAL code OR at EQUAL -1)
    string(REPLACE ";" " " args "${ARGN}")
    message(SEND_ERROR "dtnsim-${tool} ${args}: exited ${rc} (want ${code}), "
                       "output lacks '${text}':\n${out}${err}")
  endif()
endfunction()

# One value-taking flag per tool; dtnsim-ss and -perf take theirs from the
# shared run table too.
set(value_flags
    iperf3 --fq-rate   sweep --kernels       ss --diff       ss --probe-interval
    perf --record      scenario --validate   report --diff   repro --out
    advisor --testbed)
list(LENGTH value_flags n)
math(EXPR last "${n} - 1")
foreach(i RANGE 0 ${last} 2)
  math(EXPR j "${i} + 1")
  list(GET value_flags ${i} tool)
  list(GET value_flags ${j} flag)
  expect(${tool} 2 "missing value for ${flag}" ${flag})
endforeach()

foreach(tool iperf3 sweep ss perf scenario report repro advisor)
  expect(${tool} 0 "--help" --help)
  expect(${tool} 2 "unknown flag: --no-such-flag" --no-such-flag)
endforeach()

expect(advisor 2 "no path named WAN 999ms" --path "WAN 999ms")
expect(advisor 0 "amlight-dtn (Intel Xeon Gold 6346, kernel 5.10)" --testbed amlight-baremetal)

# Each run tool writes every file its line names and notes it after the
# text view.
set(out ${TOOLS}/tool_cli_out)
file(REMOVE_RECURSE ${out})
file(MAKE_DIRECTORY ${out})
function(expect_run tool)
  set(files ${out}/${tool}.json ${out}/${tool}.csv ${out}/${tool}.trace.json ${ARGN})
  file(REMOVE ${files})
  expect(${tool} 0 "record     : ${out}/${tool}.json" --testbed esnet
         --record-out ${out}/${tool}.json --metrics-out ${out}/${tool}.csv
         --trace-out ${out}/${tool}.trace.json ${run_${tool}})
  foreach(f IN LISTS files)
    if(NOT EXISTS ${f})
      message(SEND_ERROR "dtnsim-${tool} wrote no ${f}")
    endif()
  endforeach()
endfunction()
set(run_ss -t 2)
set(run_perf -t 2)
set(run_scenario --run --scenario scenarios/link_flap.json --path "WAN 63ms" --fq-rate 10G
    -t 30 --record-timeline ${out}/scenario.timeline.json)
expect_run(ss)
expect_run(perf)
expect_run(scenario ${out}/scenario.timeline.json)

# The replays render those records; a file that is not one exits 2 naming it.
expect(ss 0 "flow 0: ESTAB" --replay ${out}/ss.json)
expect(ss 0 "dtnsim-ss diff (B - A)" --diff ${out}/ss.json ${out}/perf.json)
expect(perf 0 "copy_user_enhanced_fast_string" --replay ${out}/perf.json --flame)
expect(scenario 0 "2 events crossed, 2 applied" --replay ${out}/scenario.json)
foreach(tool ss perf scenario)
  expect(${tool} 2 "scenarios/link_flap.json" --replay scenarios/link_flap.json)
endforeach()
expect(scenario 2 "${out}/ss.json holds no scenario event log" --replay ${out}/ss.json)

# Outputs that cannot be written: each goes through a symlink to /dev/full
# (or into a missing directory), and its tool exits non-zero naming it.
set(full ${out}/full)
file(MAKE_DIRECTORY ${full}/repro)
foreach(f record.gp campaign.dat repro/fig5.gp rows.jsonl stream.json)
  file(CREATE_LINK /dev/full ${full}/${f} SYMBOLIC)
endforeach()
file(WRITE ${full}/done.jsonl "{\"index\": 0, \"name\": \"a\", \"repeats\": 2, \"avg_gbps\": 9.5}\n")
expect(report 1 "cannot write ${full}/record.gp" --plot ${out}/ss.json --plot-base ${full}/record)
expect(sweep 1 "cannot write ${full}/campaign.dat"
       --report ${full}/done.jsonl --plot-out ${full}/campaign)
expect(repro 1 "failed to write ${full}/repro/fig5.gp" fig5 --quick --out ${full}/repro)
expect(iperf3 1 "cannot write trace stream to ${full}/stream.json"
       -t 2 --trace-stream ${full}/stream.json)
expect(iperf3 1 "cannot write trace stream to ${full}/no-such-dir/stream.json"
       -t 2 --trace-stream ${full}/no-such-dir/stream.json)
# A campaign row that cannot be written stops the campaign.
expect(sweep 2 "cannot write ${full}/rows.jsonl"
       --quick --paths LAN --streams 1 --out ${full}/rows.jsonl)
