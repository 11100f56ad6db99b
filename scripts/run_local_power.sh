#!/usr/bin/env bash
# Limiting power under local alternatives mu0 + delta/sqrt(n): the four
# statistics per family at delta components +/-0.5 and +/-5.  Each cell is
# the exact noncentral chi-squared tail lambda chi2_d(|kappa delta|^2 / lambda)
# with the closed-form variance scalar lambda and drift factor kappa, so the
# *_se columns are 0 and the seed changes no number.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p results

python3 -m fstest table2 \
    --seed 20260814 \
    --d 4 --gamma 0.5 --alpha 0.05 \
    --out results/local_power.csv

echo "wrote results/local_power.csv"
