# SIMD backend selection for the util/simd.hpp facade.
#
# GCM_SIMD=auto|avx2|scalar picks which backend header the single #if in
# src/util/simd.hpp compiles in:
#   auto    avx2 when the target is x86-64, the compiler accepts -mavx2
#           and -mpclmul, and the (non-cross) build host advertises avx2
#           and pclmulqdq; scalar otherwise. The default: a plain build
#           never emits instructions its own host cannot run.
#   avx2    require AVX2 + PCLMULQDQ (configure error if the compiler lacks
#           -mavx2 or -mpclmul; the binaries need a host with both).
#   scalar  portable fallback only -- CI runs a forced-scalar leg with
#           this so the fallback path stays tested.
#
# The resolved backend is exported as GCM_SIMD_RESOLVED ("avx2"|"scalar");
# src/CMakeLists.txt turns it into GCM_SIMD_AVX2 / GCM_SIMD_SCALAR compile
# definitions on the gcm target, with -mavx2 -mpclmul (the backend's CRC-32
# folds with carry-less multiplies). Deliberately NOT added for avx2: -mfma.
# FMA contraction would change rounding between the two backends and break
# the facade's bitwise-equality contract (see src/util/simd_avx2.hpp).

set(GCM_SIMD "auto" CACHE STRING
    "SIMD backend for util/simd.hpp: auto | avx2 | scalar")
set_property(CACHE GCM_SIMD PROPERTY STRINGS auto avx2 scalar)

include(CheckCXXCompilerFlag)

function(_gcm_simd_detect_avx2 out_var)
  set(${out_var} FALSE PARENT_SCOPE)
  if(NOT CMAKE_SYSTEM_PROCESSOR MATCHES "x86_64|AMD64|amd64")
    return()
  endif()
  check_cxx_compiler_flag(-mavx2 GCM_CXX_HAS_MAVX2)
  check_cxx_compiler_flag(-mpclmul GCM_CXX_HAS_MPCLMUL)
  if(NOT GCM_CXX_HAS_MAVX2 OR NOT GCM_CXX_HAS_MPCLMUL)
    return()
  endif()
  if(CMAKE_CROSSCOMPILING)
    return()  # cannot probe the eventual host; stay portable
  endif()
  # On Linux, confirm the build host itself has avx2 and pclmulqdq so
  # `cmake && make && ctest` cannot produce a SIGILL-ing test suite. Other
  # hosts (macOS x86-64 and friends) are assumed capable; GCM_SIMD=scalar
  # opts out.
  if(EXISTS "/proc/cpuinfo")
    file(READ "/proc/cpuinfo" _gcm_cpuinfo)
    if(NOT _gcm_cpuinfo MATCHES "[ \t]avx2[ \t\r\n]" OR
       NOT _gcm_cpuinfo MATCHES "[ \t]pclmulqdq[ \t\r\n]")
      return()
    endif()
  endif()
  set(${out_var} TRUE PARENT_SCOPE)
endfunction()

if(GCM_SIMD STREQUAL "auto")
  _gcm_simd_detect_avx2(_gcm_avx2_ok)
  if(_gcm_avx2_ok)
    set(GCM_SIMD_RESOLVED "avx2")
  else()
    set(GCM_SIMD_RESOLVED "scalar")
  endif()
elseif(GCM_SIMD STREQUAL "avx2")
  check_cxx_compiler_flag(-mavx2 GCM_CXX_HAS_MAVX2)
  check_cxx_compiler_flag(-mpclmul GCM_CXX_HAS_MPCLMUL)
  if(NOT GCM_CXX_HAS_MAVX2 OR NOT GCM_CXX_HAS_MPCLMUL)
    message(FATAL_ERROR
            "GCM_SIMD=avx2 but the compiler rejects -mavx2 or -mpclmul")
  endif()
  set(GCM_SIMD_RESOLVED "avx2")
elseif(GCM_SIMD STREQUAL "scalar")
  set(GCM_SIMD_RESOLVED "scalar")
else()
  message(FATAL_ERROR
          "GCM_SIMD must be auto, avx2, or scalar (got '${GCM_SIMD}')")
endif()

message(STATUS "gcm: SIMD backend = ${GCM_SIMD_RESOLVED} (GCM_SIMD=${GCM_SIMD})")
