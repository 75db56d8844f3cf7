# A CLI output test: run TOOL with ARGS (one space-separated string)
# and pass only when it exits 0 and its stdout equals the file GOLDEN
# byte for byte or, given REGEX instead of GOLDEN, matches REGEX.
# Run as:
#   cmake -DTOOL=<path> "-DARGS=<args>" -DGOLDEN=<file>
#         -P expect_output.cmake
#   cmake -DTOOL=<path> "-DARGS=<args>" "-DREGEX=<re>"
#         -P expect_output.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${TOOL} ${args}
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${TOOL} ${ARGS}: exit ${rc}, want 0\n"
                        "stdout:\n${out}\nstderr:\n${err}")
endif()
if(DEFINED GOLDEN)
    file(READ "${GOLDEN}" want)
    if(NOT out STREQUAL want)
        # Keep the output beside the test for a closer look.
        get_filename_component(name "${GOLDEN}" NAME)
        file(WRITE "${name}.actual" "${out}")
        execute_process(COMMAND diff "${GOLDEN}" "${name}.actual"
                        OUTPUT_VARIABLE delta)
        message(FATAL_ERROR "${TOOL} ${ARGS}: stdout differs from "
                            "${GOLDEN}:\n${delta}")
    endif()
elseif(NOT out MATCHES "${REGEX}")
    message(FATAL_ERROR "${TOOL} ${ARGS}: stdout does not match "
                        "'${REGEX}':\n${out}")
endif()
