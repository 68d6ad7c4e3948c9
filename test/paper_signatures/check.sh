#!/bin/sh
# Paper-outcome pin: one pass of a paperbench workload, checked for its
# outcomes and for bit identity.
#
#   sh test/paper_signatures/check.sh WORKLOAD SEED
#
# Run from the repository root. Runs `python3 paperbench/run.py
# --workload WORKLOAD --seed SEED --seconds 1`, fails when its result
# line reports "correct": false, then extracts the deterministic
# `signature:` block the run logs on standard error (iterations,
# verifier calls, learned-parameter digests, coverage, verdict tally,
# work counters) and diffs it against the committed
# test/paper_signatures/WORKLOAD-seedSEED.sig. A pure performance change
# must leave every signature byte unchanged; a change that moves one on
# purpose regenerates the golden file from the new run's
# paperbench_WORKLOAD.sig.
set -eu
workload=$1
seed=$2
golden="test/paper_signatures/$workload-seed$seed.sig"
out="paperbench_$workload"
status=0
python3 paperbench/run.py --workload "$workload" --seed "$seed" --seconds 1 \
  > "$out.json" 2> "$out.log" || status=$?
cat "$out.log" >&2
if [ "$status" -ne 0 ]; then
  echo "check.sh: paperbench run failed ($status)" >&2
  exit 1
fi
tail -n 1 "$out.json" | python3 -c \
  'import json, sys; sys.exit(0 if json.loads(sys.stdin.read())["correct"] is True else 1)' || {
  echo "check.sh: $workload seed $seed reported \"correct\": false" >&2
  exit 1
}
awk '/^signature:/ { p = 1; print; next } p && /^  / { print; next } { p = 0 }' \
  "$out.log" > "$out.sig"
if ! diff -u "$golden" "$out.sig"; then
  echo "check.sh: $workload seed $seed signature differs from $golden" >&2
  exit 1
fi
echo "$workload seed $seed: outcomes correct, signature matches $golden"
