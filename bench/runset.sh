#!/usr/bin/env bash
# Runs every workload ten times, seeds 1 to 10, at the benchmark's own run
# length, and appends the results to OUT for -compare. Two sets of the same
# code must agree within the benchmark's own bounds:
#
#   bench/runset.sh /tmp/A.jsonl && bench/runset.sh /tmp/B.jsonl
#   bash bench/run.sh -compare /tmp/A.jsonl /tmp/B.jsonl
set -euo pipefail
out=$(realpath -m "${1:?usage: runset.sh OUT.jsonl}")
for w in core-mem audit-reads durable-tcp repl-skew; do
  for seed in 1 2 3 4 5 6 7 8 9 10; do
    bash "$(dirname "$0")/run.sh" -workload "$w" -seed "$seed" -trace 0 -out "$out" | tail -n 1 | cut -c1-160
  done
done
