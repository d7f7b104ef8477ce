# Layering check, registered as the `layering_check` CTest
# (tests/CMakeLists.txt); by hand:
#
#   cmake -DGCM_SRC_DIR=src -P cmake/CheckLayering.cmake
#
# The engine layers (util, encoding, matrix, grammar, core, baselines,
# reorder) must not include the serving or network layers, and serving
# must not include the network layer. src/spec_families.cpp, above all of
# them, is the one file that names every layer's spec families. Fails
# listing each offending #include.
if(NOT GCM_SRC_DIR)
  message(FATAL_ERROR
    "usage: cmake -DGCM_SRC_DIR=<src dir> -P CheckLayering.cmake")
endif()
get_filename_component(GCM_SRC_DIR "${GCM_SRC_DIR}" ABSOLUTE)

set(violations "")

# Records every #include under src/<dir> (for each dir in `dirs`) whose
# path starts with one of the `forbidden` alternatives.
macro(gcm_forbid_includes dirs forbidden)
  foreach(dir IN ITEMS ${dirs})
    file(GLOB_RECURSE sources
      "${GCM_SRC_DIR}/${dir}/*.hpp" "${GCM_SRC_DIR}/${dir}/*.cpp")
    foreach(source IN LISTS sources)
      file(STRINGS "${source}" includes
        REGEX "^[ \t]*#[ \t]*include[ \t]*[\"<](${forbidden})")
      file(RELATIVE_PATH name "${GCM_SRC_DIR}" "${source}")
      foreach(line IN LISTS includes)
        list(APPEND violations "src/${name}: ${line}")
      endforeach()
    endforeach()
  endforeach()
endmacro()

gcm_forbid_includes("util;encoding;matrix;grammar;core;baselines;reorder"
                    "serving/|net/")
gcm_forbid_includes("serving" "net/")

if(violations)
  list(JOIN violations "\n  " report)
  message(FATAL_ERROR
    "a lower layer includes a higher one:\n  ${report}")
endif()
