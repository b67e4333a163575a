# Drives train_embeddings (examples/train_embeddings.cpp) with bad command
# lines. Each must exit with status 2, name the offending argument, print
# the usage line, and print nothing to stdout: it is refused before any
# graph is loaded or thread started. A last, valid command line must train.
#
#   cmake -DTRAIN=<binary> -DWORKDIR=<dir> -P <this>
function(expect_refused what)
  execute_process(
    COMMAND ${TRAIN} ${ARGN}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "'${ARGN}': exit ${rc}, want 2\n${out}${err}")
  endif()
  if(NOT err MATCHES "${what}")
    message(FATAL_ERROR "'${ARGN}': stderr lacks '${what}':\n${err}")
  endif()
  if(NOT err MATCHES "usage: train_embeddings")
    message(FATAL_ERROR "'${ARGN}': no usage line:\n${err}")
  endif()
  if(NOT out STREQUAL "")
    message(FATAL_ERROR "'${ARGN}': ran before refusing:\n${out}")
  endif()
endfunction()

# An unknown flag is an error, not a warning, and a malformed count is not
# read as 0 (for --threads, 0 means every core).
expect_refused("unknown flag '--bogus=1'" --bogus=1 --threads=abc)
expect_refused("bad value in '--threads=abc'" --threads=abc)
# A negative epoch count must not reach EhnaModel::Train.
expect_refused("bad value in '--epochs=-3'" --epochs=-3)
# A flag this trainer does not have is refused, not ignored.
expect_refused("unknown flag '--pipeline-depth=2'" --pipeline-depth=2)
# Refused by range, without starting a thread.
expect_refused("bad value in '--threads=100000'" --threads=100000)
expect_refused("bad value in '--threads=-1'" --threads=-1)
expect_refused("bad value in '--dim=64x'" --dim=64x)
expect_refused("bad value in '--scale=nan'" --scale=nan)
expect_refused("bad value in '--seed=-1'" --seed=-1)
expect_refused("bad value in '--dataset=dbpl'" --dataset=dbpl)
expect_refused("bad value in '--method=ehan'" --method=ehan)
expect_refused("bad value in '--epochs'" --epochs)

execute_process(
  COMMAND ${TRAIN} --method=ehna --dataset=dblp --scale=0.01 --dim=4
          --epochs=0 --threads=0 --output=${WORKDIR}/flags_ok.txt
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0 OR NOT out MATCHES "wrote [0-9]+x4 embeddings")
  message(FATAL_ERROR "valid flags: exit ${rc}\n${out}${err}")
endif()
file(REMOVE ${WORKDIR}/flags_ok.txt)
message(STATUS "train_embeddings: bad flags refused, valid flags train")
