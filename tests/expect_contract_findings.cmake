# Compile a contract fixture at a tree path and require the contract
# check (tools/contract_check.py) to report exactly the findings marked
# on its lines. A marker `// Rn` ends each line the check must report
# under rule Rn; `// Rn unless <prefix>` is not expected when AT starts
# with <prefix>. Every unmarked line is a negative.
#
#   cmake -DCOMPILER=<c++> -DPYTHON=<python3> -DCHECK=<contract_check.py>
#         -DFIXTURE=<file.cc> -DAT=<src/...> -DROOT=<scratch dir>
#         [-DDEBUG=<-g flag>] [-DSTATUS=<n>]
#         [-DINCLUDER=<file.cc> -DINCLUDER_AT=<path>]
#         -P expect_contract_findings.cmake
#
# The fixture is compiled as ROOT/AT at -O2 and DEBUG (default -g), the
# tier-1 level, with ROOT on the include path. With INCLUDER the
# fixture is a header: INCLUDER is copied to ROOT/INCLUDER_AT and
# compiled instead, and the findings expected are still the fixture's.
# With STATUS the check must exit with it instead.
if(NOT DEFINED DEBUG)
    set(DEBUG -g)
endif()
file(REMOVE_RECURSE "${ROOT}")
configure_file("${FIXTURE}" "${ROOT}/${AT}" COPYONLY)
set(source "${ROOT}/${AT}")
if(DEFINED INCLUDER)
    configure_file("${INCLUDER}" "${ROOT}/${INCLUDER_AT}" COPYONLY)
    set(source "${ROOT}/${INCLUDER_AT}")
endif()
execute_process(COMMAND "${COMPILER}" -std=c++20 -O2 ${DEBUG}
                        -I "${ROOT}" -c "${source}" -o "${ROOT}/fixture.o"
                RESULT_VARIABLE status
                ERROR_VARIABLE err)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${FIXTURE} does not compile:\n${err}")
endif()
execute_process(COMMAND "${PYTHON}" "${CHECK}" --root "${ROOT}"
                        "${ROOT}/fixture.o"
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(DEFINED STATUS)
    if(NOT status EQUAL STATUS)
        message(FATAL_ERROR "the check exited ${status}, not ${STATUS}:\n"
                            "${out}${err}")
    endif()
    return()
endif()

# Findings and markers as `<line> Rn`; neither holds a `;`.
string(REGEX MATCHALL "${AT}:[0-9]+: \\[R[5-9]" found "${out}")
list(TRANSFORM found REPLACE "${AT}:([0-9]+): \\[" "\\1 ")
execute_process(COMMAND grep -n -o "// R[5-9].*$" "${FIXTURE}"
                OUTPUT_VARIABLE markers)
string(REPLACE "\n" ";" markers "${markers}")
set(expected)
foreach(marker IN LISTS markers)
    if(marker MATCHES "^([0-9]+):// (R[5-9])( unless (.+))?$")
        string(FIND "${AT}" "${CMAKE_MATCH_4}" at)
        if(NOT CMAKE_MATCH_3 OR NOT at EQUAL 0)
            list(APPEND expected "${CMAKE_MATCH_1} ${CMAKE_MATCH_2}")
        endif()
    endif()
endforeach()
list(REMOVE_DUPLICATES found)
list(SORT found)
list(SORT expected)
# Exit 1 means findings and 0 none; 2 is an error, never a result.
if(NOT status MATCHES "^[01]$" OR NOT "${found}" STREQUAL "${expected}")
    message(FATAL_ERROR "${AT}: expected findings at [${expected}], "
                        "got [${found}] (exit ${status}):\n${out}${err}")
endif()
