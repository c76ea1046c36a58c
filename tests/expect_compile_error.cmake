# Require a guarantee that the type system enforces: CASE must
# compile as written (-DMTLBSIM_PLANT=0, the control) and must fail
# to compile with each planted mutation (-DMTLBSIM_PLANT=<n> for every
# n in PLANTS, a comma-separated list; default 1). The control keeps
# a case that fails for an unrelated reason (a typo, a missing
# include) from passing as a caught mutation.
#
#   cmake -DCOMPILER=<c++> -DSRC=<src dir> -DCASE=<file.cc>
#         [-DPLANTS=1,2] -P expect_compile_error.cmake
#
# The compiler is called directly, syntax-only, rather than through a
# nested build, so the cases are safe to run in parallel (ctest -j).
if(NOT PLANTS)
    set(PLANTS 1)
endif()
string(REPLACE "," ";" plants "${PLANTS}")
set(compile "${COMPILER}" -std=c++20 -fsyntax-only "-I${SRC}" "${CASE}")

execute_process(COMMAND ${compile} -DMTLBSIM_PLANT=0
                RESULT_VARIABLE status
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "the control (MTLBSIM_PLANT=0) of ${CASE} "
                        "does not compile:\n${err}")
endif()

foreach(plant IN LISTS plants)
    execute_process(COMMAND ${compile} -DMTLBSIM_PLANT=${plant}
                    RESULT_VARIABLE status
                    OUTPUT_QUIET
                    ERROR_QUIET)
    if(status EQUAL 0)
        message(FATAL_ERROR "mutation ${plant} of ${CASE} compiles: "
                            "the guarantee it breaks is not enforced")
    endif()
endforeach()
