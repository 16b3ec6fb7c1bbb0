#!/bin/sh
# Regenerate everything: build, full test suite, all experiments.
# Outputs land in test_output.txt and bench_output.txt.
set -e
dune build @all
dune build @lint
dune runtest --force --no-buffer 2>&1 | tee test_output.txt
dune exec bench/main.exe 2>&1 | tee bench_output.txt
