#!/usr/bin/env bash
# Regenerate the five results/*.csv campaigns from src/ and fail if any
# byte differs from the committed files.  Uses the machine's default BLAS
# thread count: table3's d=100 cells depend on it in the last bits, and the
# committed finite_sample_efficiency.csv was written under the default.
# About 22 seconds on a 2-vCPU machine.  Ends by printing the line count of
# src/fstest, the size that ROADMAP aim 2 tracks.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
# a RuntimeWarning (overflow, invalid value) fails the campaigns, as it fails pytest
export PYTHONWARNINGS=error::RuntimeWarning

for script in scripts/run_*.sh; do
    bash "$script"
done
git diff --exit-code --stat -- results/
echo "src/fstest: $(cat src/fstest/*.py | wc -l) lines"
