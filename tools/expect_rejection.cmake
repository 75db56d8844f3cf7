# A CLI rejection test: run TOOL with ARGS (one space-separated string)
# and pass only when it exits with status CODE and its stderr matches
# REGEX, so a tool that fails for some other reason does not count.
# Run as:
#   cmake -DTOOL=<path> "-DARGS=<args>" -DCODE=<n> "-DREGEX=<re>"
#         -P expect_rejection.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${TOOL} ${args}
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                RESULT_VARIABLE rc)
if(NOT rc EQUAL CODE)
    message(FATAL_ERROR "${TOOL} ${ARGS}: exit ${rc}, want ${CODE}\n"
                        "stdout:\n${out}\nstderr:\n${err}")
endif()
if(NOT err MATCHES "${REGEX}")
    message(FATAL_ERROR "${TOOL} ${ARGS}: stderr does not match "
                        "'${REGEX}':\n${err}")
endif()
