# The cli_sweep_list test: `vspec_sweep --list` exits 0, names all twelve
# named sweeps at the start of a stdout line, and writes nothing to
# stderr. Run as: cmake -DVSPEC_SWEEP=<path> -P check_sweep_list.cmake
execute_process(COMMAND ${VSPEC_SWEEP} --list
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "vspec_sweep --list exited ${rc}")
endif()
if(NOT err STREQUAL "")
    message(FATAL_ERROR "vspec_sweep --list wrote to stderr:\n${err}")
endif()
foreach(name base fig3 fig4 confidence predictors verif-latency
        reissue-latency table1 verif-scheme branch-resolution
        mem-resolution selection)
    if(NOT out MATCHES "(^|\n)${name} ")
        message(FATAL_ERROR "sweep '${name}' missing from stdout:\n${out}")
    endif()
endforeach()
