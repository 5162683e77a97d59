#!/usr/bin/env bash
# Records two run files interleaved and compares them. Run from the root
# of the new checkout:
#
#   bash perfbench/runs.sh OLD_ROOT OLD.jsonl NEW.jsonl COUNT
#
# For each seed 1..COUNT and each of the three workloads, it runs the
# benchmark once in OLD_ROOT (another checkout, built there from its own
# sources) and once here, alternating which side goes first, and appends
# the records to OLD.jsonl and NEW.jsonl. The host's speed drifts over a
# recording, so only sets recorded this way can show a gain. To measure
# the run-to-run spread of one tree, give "." as OLD_ROOT. It ends by
# printing the --compare table of the two files.
set -euo pipefail

old_root="$(cd "$1" && pwd)"
abs() { echo "$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"; }
old_out="$(abs "$2")"
new_out="$(abs "$3")"
count="$4"
new_root="$(pwd)"
workloads=(serve-mixed sweep-exact wide-sim)

side() { # side ROOT OUT WORKLOAD SEED
	(cd "$1" && bash perfbench/run.sh --workload "$3" --seed "$4" --trace 0 --out "$2" | tail -n 1)
}
for ((s = 1; s <= count; s++)); do
	for w in "${workloads[@]}"; do
		if ((s % 2)); then
			side "$old_root" "$old_out" "$w" "$s"
			side "$new_root" "$new_out" "$w" "$s"
		else
			side "$new_root" "$new_out" "$w" "$s"
			side "$old_root" "$old_out" "$w" "$s"
		fi
	done
done
bash perfbench/run.sh --compare "$old_out" "$new_out"
