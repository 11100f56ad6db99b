#!/usr/bin/env bash
# Finite-sample efficiency of the plain estimators relative to the trimmed
# one: determinant ratios of covariance estimates over 1000 replications,
# n in {10, 100}, d up to 100.  The d=100 pairwise-median cells dominate
# the cost; about 10 seconds on one 2 GHz Xeon core.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p results

python3 -m fstest table3 \
    --seed 20260814 \
    --gamma 0.5 --reps 1000 \
    --n-grid 10,100 \
    --d-grid 2,4,10,20,50,100 \
    --out results/finite_sample_efficiency.csv

echo "wrote results/finite_sample_efficiency.csv"
