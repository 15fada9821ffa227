# Check where wide instructions live in BINARIES (a comma-separated
# list), disassembled with OBJDUMP (tests/CMakeLists.txt, test
# isa_containment; docs/KERNELS.md § 1). The default build targets
# baseline x86-64, and only kernels::detail::run_avx2 / run_avx512
# instantiations may run AVX code, after a host check. It fails when
#  * a function that is not one of them holds a ymm or zmm operand, or
#    any VEX/EVEX instruction but float16's F16C sites (vcvtph2ps,
#    vcvtps2ph and the vmovd feeding the first);
#  * an AVX2 copy holds zmm;
#  * with EXPECT_WIDE (unsanitized Release builds, whose copies
#    vectorize): a copy holds no ymm or zmm, so its kernels were
#    called, not inlined and compiled for its ISA; or no AVX-512 copy
#    holds zmm;
#  * any FMA instruction appears: the muladd contract rounds a*b + c
#    twice (docs/KERNELS.md § 3).
# Without objdump, or on binaries that are not x86-64, it prints the
# line the test's SKIP_REGULAR_EXPRESSION matches. WORK_DIR holds each
# disassembly while it is read.
if(NOT OBJDUMP OR NOT EXISTS "${OBJDUMP}")
  message("isa containment skipped: no objdump")
  return()
endif()
string(REPLACE "," ";" BINARIES "${BINARIES}")
set(f16c_sites vcvtph2ps vcvtps2ph vmovd)
set(avx2_prefix "_ZN3tfx7kernels6detail8run_avx2I")
set(avx512_prefix "_ZN3tfx7kernels6detail10run_avx512I")
set(failures "")
set(avx2_copies 0)
set(avx512_copies 0)
set(avx512_with_zmm 0)

# Record one failure per function.
macro(fail why example)
  list(FIND reported "${fn}" seen)
  if(seen EQUAL -1)
    list(APPEND reported "${fn}")
    list(APPEND failures "${name}: ${why}: ${fn} ${example}")
  endif()
endmacro()

# Close the function the listing has just left. A `.cold` part holds
# only the copy's unlikely paths, so it may hold no vector code.
macro(close_function)
  if(kind STREQUAL "avx512" AND fn_zmm)
    math(EXPR avx512_with_zmm "${avx512_with_zmm} + 1")
  endif()
  if(EXPECT_WIDE AND NOT kind STREQUAL "baseline" AND NOT fn_wide AND
     NOT fn MATCHES "\\.cold$")
    fail("no ymm or zmm in this ${kind} copy" "")
  endif()
endmacro()

foreach(bin IN LISTS BINARIES)
  execute_process(COMMAND ${OBJDUMP} -f ${bin}
                  OUTPUT_VARIABLE header RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${OBJDUMP} -f ${bin} exited with ${rc}")
  endif()
  if(NOT header MATCHES "x86-64")
    message("isa containment skipped: ${bin} is not x86-64")
    return()
  endif()
  get_filename_component(name ${bin} NAME)
  set(listing "${WORK_DIR}/${name}.dis")
  execute_process(COMMAND ${OBJDUMP} -d --no-show-raw-insn ${bin}
                  OUTPUT_FILE ${listing} RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${OBJDUMP} -d ${bin} exited with ${rc}")
  endif()
  # Function headers and instructions whose mnemonic starts with v:
  # every VEX/EVEX instruction, and the only ones that name ymm/zmm.
  file(STRINGS ${listing} lines REGEX "^[0-9a-f]+ <|:\tv")
  file(REMOVE ${listing})
  set(fn "")
  set(kind "baseline")
  set(fn_wide TRUE)
  set(reported "")
  foreach(line IN LISTS lines)
    if(line MATCHES "^[0-9a-f]+ <(.*)>:$")
      set(next "${CMAKE_MATCH_1}")
      close_function()
      set(fn "${next}")
      set(fn_wide FALSE)
      set(fn_zmm FALSE)
      string(FIND "${fn}" "${avx2_prefix}" at2)
      string(FIND "${fn}" "${avx512_prefix}" at512)
      if(at2 EQUAL 0)
        set(kind "avx2")
        math(EXPR avx2_copies "${avx2_copies} + 1")
      elseif(at512 EQUAL 0)
        set(kind "avx512")
        math(EXPR avx512_copies "${avx512_copies} + 1")
      else()
        set(kind "baseline")
      endif()
    elseif(line MATCHES ":\t(v[a-z0-9]+) *(.*)$")
      set(mnemonic "${CMAKE_MATCH_1}")
      set(insn "${CMAKE_MATCH_1} ${CMAKE_MATCH_2}")
      set(wide FALSE)
      if(insn MATCHES "%[yz]mm")
        set(wide TRUE)
        set(fn_wide TRUE)
      endif()
      if(insn MATCHES "%zmm")
        set(fn_zmm TRUE)
      endif()
      list(FIND f16c_sites "${mnemonic}" f16c)
      if(mnemonic MATCHES "^vf(n)?m(add|sub)")
        fail("FMA" "${insn}")
      elseif(kind STREQUAL "avx2" AND fn_zmm)
        fail("zmm in an AVX2 copy" "${insn}")
      elseif(kind STREQUAL "baseline" AND (wide OR f16c EQUAL -1))
        fail("VEX/EVEX outside the ISA copies" "${insn}")
      endif()
    endif()
  endforeach()
  close_function()
endforeach()
if(EXPECT_WIDE AND avx512_with_zmm EQUAL 0)
  list(APPEND failures "no AVX-512 copy holds zmm (${avx512_copies} copies)")
endif()
if(failures)
  list(LENGTH failures n)
  list(JOIN failures "\n  " text)
  message(FATAL_ERROR "${n} ISA containment failures:\n  ${text}")
endif()
message("isa containment: ${avx2_copies} AVX2 and ${avx512_copies} AVX-512 "
        "copies (${avx512_with_zmm} with zmm); no wide instruction "
        "elsewhere, no FMA")
