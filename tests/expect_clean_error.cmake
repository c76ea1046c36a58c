# Run a program on malformed input and require a clean error: a
# nonzero exit status that is not a signal (exactly STATUS, when
# given), and MESSAGE (a regex) on stderr. The script first writes
# CONTENT to INPUT, so each case carries its own malformed file.
#
#   cmake -DPROGRAM=<exe> "-DARGS=<args>" -DINPUT=<file>
#         "-DCONTENT=<text>" "-DMESSAGE=<regex>" [-DSTATUS=<n>]
#         -P expect_clean_error.cmake
#
# ARGS is one space-separated string.
file(WRITE "${INPUT}" "${CONTENT}")
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${args}
                RESULT_VARIABLE status
                OUTPUT_QUIET
                ERROR_VARIABLE err)
# A signal (or a failure to start) comes back as text, not a number.
if(NOT status MATCHES "^[0-9]+$")
    message(FATAL_ERROR "${PROGRAM} did not exit cleanly: ${status}\n${err}")
endif()
if(status EQUAL 0)
    message(FATAL_ERROR "${PROGRAM} accepted malformed input\n${err}")
endif()
if(DEFINED STATUS AND NOT status EQUAL STATUS)
    message(FATAL_ERROR "${PROGRAM} exited ${status}, not ${STATUS}\n${err}")
endif()
if(NOT err MATCHES "${MESSAGE}")
    message(FATAL_ERROR "${PROGRAM} stderr lacks '${MESSAGE}':\n${err}")
endif()
