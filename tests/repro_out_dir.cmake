# dtnsim-repro creates its --out directory, parents included, from a clean
# tree:
#
#   cmake -DREPRO=<dtnsim-repro> -DOUT=<empty dir to create> -P tests/repro_out_dir.cmake
file(REMOVE_RECURSE ${OUT})
execute_process(COMMAND ${REPRO} table3 --quick --out ${OUT}/a/b
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "dtnsim-repro table3 --quick --out ${OUT}/a/b exited ${rc}:\n${out}${err}")
endif()
if(NOT EXISTS ${OUT}/a/b/table3.json)
  message(FATAL_ERROR "dtnsim-repro left no ${OUT}/a/b/table3.json:\n${out}")
endif()
