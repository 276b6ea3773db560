#!/usr/bin/env bash
# A/A check: the same code measured as two sides in the order A B B A A B,
# each side's three invocations merged with --append. Passes only when
# `compare` calls every pairing of workload and end-to-end metric `ok`.
# Usage: benchmark/aa.sh [seed]     (about 20 minutes on the 2-vCPU host)
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-1}"
out=benchmark/out
bench() { cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- "$@"; }
mkdir -p "$out"
rm -f "$out/aa_A.json" "$out/aa_B.json"
for side in A B B A A B; do
    bench run --seed "$seed" --append --out "$out/aa_$side.json" > "$out/aa_last.txt"
    tail -n 1 "$out/aa_last.txt" | grep -q '"correct":true' || { echo "side $side: failed operations"; exit 1; }
    echo "side $side done"
done
report="$(bench compare "$out/aa_A.json" "$out/aa_B.json")"
echo "$report"
if echo "$report" | grep -Eq '  (regressed|unresolved) \('; then
    echo "A/A FAILED: a pairing is not ok"
    exit 1
fi
echo "A/A passed: every pairing ok"
