#!/usr/bin/env bash
# Finite-sample power of all four tests against mixture shifts, full grid:
# three families, beta from 0 to 1 in steps of 0.1, 1000 replications at
# n=100, d=4.  Runs in about 10 seconds on one 2 GHz Xeon core;
# FSTEST_THREADS=<k> spreads the simulation batches over k threads and
# produces byte-identical output.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p results

python3 -m fstest power-table \
    --seed 20260814 \
    --d 4 --n 100 --gamma 0.5 --alpha 0.05 \
    --reps 1000 --null-reps 2000 \
    --out results/power_table.csv

echo "wrote results/power_table.csv"
