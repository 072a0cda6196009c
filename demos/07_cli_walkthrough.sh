#!/bin/sh
# The command line end to end: draw a synthetic sample, fit and persist
# a model, score, sweep parameters, evaluate against ground truth and
# verify a concentration bound.  All outputs are CSVs with "# key=value"
# metadata lines; pass --no-timestamp for byte-reproducible files.
# Reading a tool-written CSV back requires --header (the column row).
set -e

cli="python3 -m setlearn"
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
echo "writing to $out"

$cli synth --task circle --n 120 --seed 7 --out "$out/circle.csv" \
    --grid-out "$out/grid.csv" --resolution 48

$cli train --data "$out/circle.csv" --header \
    --kernel abel --sigma auto --filter tikhonov --lambda auto \
    --tau 0.2 --out "$out/model.txt" --no-timestamp

$cli score --model "$out/model.txt" --data "$out/circle.csv" --header \
    --out "$out/scores.csv" --no-timestamp

$cli sweep --data "$out/circle.csv" --header --kernel abel --sigma auto \
    --filter tikhonov --lambdas 1e-4,1e-3,1e-2,1e-1 --taus 0.1,0.3 \
    --out "$out/sweep.csv"

$cli eval --task circle --n 100 --kernel abel --sigma 1 \
    --filter tikhonov --lambda 1e-3 --tau 0.2 --trials 5 \
    --resolution 48 --seed 7 --out "$out/eval.csv"

$cli verify-bounds --harness concentration --task circle --kernel abel \
    --sigma 1 --n 60 --delta 2 --trials 100 --ref-size 4000 --seed 0 \
    --out "$out/bounds.csv"

echo
echo "--- model file (head) ---"
head -n 12 "$out/model.txt"
echo
echo "--- evaluation summary ---"
tail -n 3 "$out/eval.csv"
