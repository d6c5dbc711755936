# Every tests/golden/ file a test source or the CI workflow names must exist
# and, in a git checkout, be tracked: an ignore rule (`*.csv`) once kept a
# golden out of git, so a fresh clone failed the test that reads it.
#
#   cmake -DROOT=<repo root> -P tests/golden_tracked.cmake
file(GLOB sources ${ROOT}/tests/*.cpp)
list(APPEND sources ${ROOT}/.github/workflows/ci.yml)
set(paths "")
foreach(src IN LISTS sources)
  file(STRINGS ${src} lines REGEX "tests/golden/[A-Za-z0-9_.-]*[A-Za-z0-9_-]")
  foreach(line IN LISTS lines)
    # A path ends in a name character, so a sentence's full stop is not read
    # into it ("... in tests/golden/engine_work.txt.").
    string(REGEX MATCHALL "tests/golden/[A-Za-z0-9_.-]*[A-Za-z0-9_-]" found "${line}")
    list(APPEND paths ${found})
  endforeach()
endforeach()
list(REMOVE_DUPLICATES paths)
if(NOT paths)
  message(FATAL_ERROR "golden_tracked: no tests/golden/ paths found; the scan is broken")
endif()

# Tracking is only checkable inside a git work tree (a source tarball has none).
find_program(GIT git)
set(in_git FALSE)
if(GIT)
  execute_process(COMMAND ${GIT} -C ${ROOT} rev-parse --is-inside-work-tree
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(rc EQUAL 0)
    set(in_git TRUE)
  endif()
endif()

set(bad "")
foreach(path IN LISTS paths)
  if(NOT EXISTS ${ROOT}/${path})
    list(APPEND bad "${path} is missing")
  elseif(in_git)
    execute_process(COMMAND ${GIT} -C ${ROOT} ls-files --error-unmatch -- ${path}
                    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
    if(NOT rc EQUAL 0)
      list(APPEND bad "${path} is not tracked by git (check .gitignore)")
    endif()
  endif()
endforeach()
if(bad)
  list(JOIN bad "\n  " text)
  message(FATAL_ERROR "golden_tracked:\n  ${text}")
endif()
list(LENGTH paths n)
message(STATUS "golden_tracked: ${n} golden files present (git-tracked: ${in_git})")
