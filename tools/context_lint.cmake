# Context-discipline lint: the grep gate behind the scoped-execution-context
# refactor (core/context.hpp).  Process-global reach-arounds must not creep
# back into production code, so this script fails when any file under src/
# (outside the sanctioned few) spells:
#
#   Registry::instance(        -> use metrics::registry() (or a context)
#   FaultInjector::instance(   -> the injector is per-thread (threadLocal());
#                                 a process-singleton spelling is always wrong
#   getenv("AMSYN_            -> read the knob from ContextConfig (snapshotted
#                                 once by fromEnv() via core/envknobs.hpp)
#
# Sanctioned files are the ones that *implement* the shared handles and the
# single environment snapshot; everything else goes through a context.
# Same spirit as tests/tier1_gate_check.cmake: registered as a ctest test
# and run as a standalone CI step, so a violation fails the gate with the
# offending file:line spelled out.
#
# Run manually:  cmake -DSOURCE_DIR=. -P tools/context_lint.cmake
cmake_minimum_required(VERSION 3.20)

if(NOT DEFINED SOURCE_DIR)
  message(FATAL_ERROR "context_lint: pass -DSOURCE_DIR=<repo root>")
endif()
get_filename_component(SOURCE_DIR "${SOURCE_DIR}" ABSOLUTE)

# Rule format: <regex>|<human hint>|<comma-separated allowlist under src/>.
# `|` and `,` never appear in the patterns or paths, so one string per rule
# survives CMake's list flattening intact.
set(rules
  "Registry::instance\\(|use metrics::registry()|core/metrics.hpp,core/metrics.cpp"
  "FaultInjector::instance\\(|the fault injector is per-thread: FaultInjector::threadLocal()|"
  "getenv\\(\"AMSYN_|AMSYN_* knobs are snapshotted once by ContextConfig::fromEnv()|core/envknobs.hpp"
)

file(GLOB_RECURSE sources
  "${SOURCE_DIR}/src/*.hpp"
  "${SOURCE_DIR}/src/*.cpp")

set(violations "")
set(nchecked 0)
foreach(path IN LISTS sources)
  # Never lint stray build trees that nest under src/ in a dirty checkout.
  if(path MATCHES "CMakeFiles")
    continue()
  endif()
  math(EXPR nchecked "${nchecked} + 1")
  file(READ "${path}" content)
  # C++ sources are full of `;`, which CMake treats as a list separator;
  # swap them out before turning newlines into list structure.
  string(ASCII 1 semi)
  string(REPLACE ";" "${semi}" content "${content}")
  string(REPLACE "\n" ";" lines "${content}")
  file(RELATIVE_PATH rel "${SOURCE_DIR}/src" "${path}")
  foreach(rule IN LISTS rules)
    string(REPLACE "|" ";" parts "${rule}")
    list(GET parts 0 pattern)
    list(GET parts 1 hint)
    set(allowed "")
    list(LENGTH parts nparts)
    if(nparts GREATER 2)
      list(GET parts 2 allowed)
      string(REPLACE "," ";" allowed "${allowed}")
    endif()
    if(rel IN_LIST allowed)
      continue()
    endif()
    if(NOT content MATCHES "${pattern}")
      continue()
    endif()
    # A hit somewhere in the file: walk lines for exact locations.
    set(lineno 0)
    foreach(line IN LISTS lines)
      math(EXPR lineno "${lineno} + 1")
      if(NOT line MATCHES "${pattern}")
        continue()
      endif()
      string(REPLACE "${semi}" ";" line "${line}")
      string(STRIP "${line}" line)
      string(APPEND violations
        "  src/${rel}:${lineno}: ${hint}\n    ${line}\n")
    endforeach()
  endforeach()
endforeach()

if(nchecked EQUAL 0)
  message(FATAL_ERROR "context_lint: found no sources under ${SOURCE_DIR}/src")
endif()

if(violations)
  message(FATAL_ERROR
    "context_lint: process-global reach-arounds found —\n${violations}"
    "Resolve shared state through core::ExecutionContext (core/context.hpp); "
    "the sanctioned spellings live only in the files that implement them.")
endif()
message(STATUS "context_lint: ${nchecked} sources clean")
