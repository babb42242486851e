# Writes the snapshot revision stamp at build time: the short HEAD revision,
# with "-dirty" when tracked files differ from it. The header is rewritten
# only when the stamp changes, so an unchanged stamp recompiles nothing.
#
#   cmake -DSOURCE_DIR=<checkout> -DOUT=<header> -P git_rev.cmake
execute_process(
  COMMAND git rev-parse --short=12 HEAD
  WORKING_DIRECTORY ${SOURCE_DIR}
  OUTPUT_VARIABLE rev
  OUTPUT_STRIP_TRAILING_WHITESPACE
  ERROR_QUIET)
if(NOT rev)
  set(rev "unknown")
else()
  execute_process(
    COMMAND git diff --quiet HEAD --
    WORKING_DIRECTORY ${SOURCE_DIR}
    RESULT_VARIABLE dirty
    ERROR_QUIET)
  if(dirty EQUAL 1)
    string(APPEND rev "-dirty")
  endif()
endif()
set(content "#define PISA_GIT_REV \"${rev}\"\n")
set(old "")
if(EXISTS "${OUT}")
  file(READ "${OUT}" old)
endif()
if(NOT old STREQUAL content)
  file(WRITE "${OUT}" "${content}")
endif()
