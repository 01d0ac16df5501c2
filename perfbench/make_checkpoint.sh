#!/bin/sh
# Writes perfbench/eval-k20.ckpt anew: `crowdcast train` for 50 epochs on the
# seed-7 synthetic corpus with its last scene held out.  Run from the root of
# the repository; takes about a minute and a half on one core.
set -eu
work=perfbench/.work/checkpoint
rm -rf "$work"
export PYTHONPATH=src OPENBLAS_NUM_THREADS=1
python3 -m crowdcast.cli synth --seed 7 --out "$work/data"
python3 -m crowdcast.cli train --config perfbench/eval-k20.cfg --data "$work/data" \
    --holdout synth011 --out "$work/run" --log-every 10
cp "$work/run/final.ckpt" perfbench/eval-k20.ckpt
rm -rf "$work"
