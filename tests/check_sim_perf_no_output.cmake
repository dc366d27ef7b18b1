# sim_perf writes a JSON file only when --out is given: a baseline check
# run without --out must leave its working directory as it found it.
#
#   cmake -DSIM_PERF=<sim_perf> -DBASELINE=<BENCH_sim_perf.smoke.json>
#         -DWORK_DIR=<scratch directory> -P check_sim_perf_no_output.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
execute_process(COMMAND "${SIM_PERF}" --smoke --baseline "${BASELINE}"
                WORKING_DIRECTORY "${WORK_DIR}"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "sim_perf --smoke --baseline exited with ${rc}")
endif()
file(GLOB left LIST_DIRECTORIES true "${WORK_DIR}/*" "${WORK_DIR}/.*")
if(left)
    message(FATAL_ERROR "sim_perf without --out left files: ${left}")
endif()
