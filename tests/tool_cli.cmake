# Every tool's command line, the same three ways:
#
#   cmake -DTOOLS=<directory of the dtnsim-* programs> -P tests/tool_cli.cmake
#
# --help exits 0; a value-taking flag with no value exits 2 with "missing
# value for <flag>"; an unknown flag exits 2 and names it. dtnsim-advisor is
# also given a path its testbed lacks, which exits 2 with the lookup's
# message. Each failing case is reported; the script fails if any did.
function(expect tool code text)
  execute_process(COMMAND ${TOOLS}/dtnsim-${tool} ${ARGN}
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
