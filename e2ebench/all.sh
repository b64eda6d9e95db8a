#!/bin/sh
# Runs every workload untraced (end-to-end metrics) and traced (per-layer
# metrics), so one command prints every metric by name and unit.
# Usage, from the repository root: sh e2ebench/all.sh [seed] [seconds]
set -e
seed=${1:-1}
seconds=${2:-20}
for w in fleet_daemon a2dp_stream cold_batch; do
    for t in 0 1; do
        cargo run --release --offline --quiet --manifest-path e2ebench/Cargo.toml -- \
            --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$t"
    done
done
