#!/bin/sh
# Full-grid macro benchmark for the shared-trie training path (PR 3).
#
# Runs `bench/main.exe --grid-only` (150k-element training stream, the
# full AS x DW grid, stide + tstide + markov) at jobs=1 and jobs=4 and
# writes BENCH_PR3.json containing both runs next to the committed
# pre-PR baseline numbers, so the before/after comparison travels with
# the repository.  The baselines below were produced by the same
# command on the same machine at the seed commit (string-keyed hash
# databases, one training scan per window width).
#
# The script fails when any detector's capable/weak/blind map summary
# differs from the baseline (the optimisation must not change a single
# cell), when any map has failed cells, or when the jobs=1 train+score
# speedup falls below the 3x acceptance floor.  The reports are read
# with python3's json module.
#
# Usage: scripts/bench.sh [output.json]
#        scripts/bench.sh --streaming [output.json]
#
# --streaming (PR 7) instead runs the streaming-throughput benchmark —
# per-symbol scoring rate of the compiled flat automaton vs the
# reference trie descent, windows 4/8/12 — into BENCH_PR7.json (machine
# context included by the bench binary), and fails when the speedup at
# any window >= 8 falls below the 10x acceptance floor.
set -eu

cd "$(dirname "$0")/.."

if [ "${1:-}" = "--streaming" ]; then
  OUT=${2:-BENCH_PR7.json}
  dune build bench/main.exe
  echo "== streaming throughput (trie descent vs compiled automaton) =="
  dune exec --no-build bench/main.exe -- --streaming --json "$OUT"

  python3 - "$OUT" <<'EOF'
import json, sys

report = json.load(open(sys.argv[1]))
measured = {m["label"]: m["value"] for m in report["measurements"]}
for w in (8, 12):
    s = measured.get(f"streaming_speedup_w{w}")
    if s is None:
        sys.exit(f"FAIL: no streaming_speedup_w{w} measurement in {sys.argv[1]}")
    print(f"window {w}: automaton {s:.2f}x trie-descent throughput")
    if s < 10.0:
        sys.exit(f"FAIL: window-{w} speedup {s:.2f}x below the 10x acceptance floor")
EOF
  echo "wrote $OUT"
  exit 0
fi

OUT=${1:-BENCH_PR3.json}
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

# --- committed pre-PR baselines ----------------------------------------

cat > "$TMP/before_j1.json" <<'EOF'
{
  "options": {
    "train_len": 150000,
    "background_len": 8000,
    "deploy_len": 30000,
    "jobs": 1
  },
  "stages": [
    { "label": "suite build", "seconds": 0.344876 },
    { "label": "grid maps", "seconds": 0.706097 }
  ],
  "engine": {
    "train_executed": 42,
    "train_cached": 0,
    "score_tasks": 336,
    "train_seconds": 0.703838,
    "score_seconds": 0.001075
  },
  "maps": [
    { "detector": "stide", "capable": 84, "weak": 0, "blind": 28, "capable_fraction": 0.750000 },
    { "detector": "tstide", "capable": 112, "weak": 0, "blind": 0, "capable_fraction": 1.000000 },
    { "detector": "markov", "capable": 112, "weak": 0, "blind": 0, "capable_fraction": 1.000000 }
  ]
}
EOF

cat > "$TMP/before_j4.json" <<'EOF'
{
  "options": {
    "train_len": 150000,
    "background_len": 8000,
    "deploy_len": 30000,
    "jobs": 4
  },
  "stages": [
    { "label": "suite build", "seconds": 0.341793 },
    { "label": "grid maps", "seconds": 0.902314 }
  ],
  "engine": {
    "train_executed": 42,
    "train_cached": 0,
    "score_tasks": 336,
    "train_seconds": 0.897228,
    "score_seconds": 0.004051
  },
  "maps": [
    { "detector": "stide", "capable": 84, "weak": 0, "blind": 28, "capable_fraction": 0.750000 },
    { "detector": "tstide", "capable": 112, "weak": 0, "blind": 0, "capable_fraction": 1.000000 },
    { "detector": "markov", "capable": 112, "weak": 0, "blind": 0, "capable_fraction": 1.000000 }
  ]
}
EOF

# --- current runs -------------------------------------------------------

dune build bench/main.exe

echo "== full grid, jobs=1 =="
dune exec --no-build bench/main.exe -- \
  --grid-only --trace --jobs 1 --json "$TMP/after_j1.json"

echo "== full grid, jobs=4 =="
dune exec --no-build bench/main.exe -- \
  --grid-only --trace --jobs 4 --json "$TMP/after_j4.json"

# --- comparison and merged report -------------------------------------

python3 - "$TMP" "$OUT" <<'EOF'
import json, os, sys

tmp, out = sys.argv[1:]
runs = {
    f"{phase}_j{j}": json.load(open(os.path.join(tmp, f"{phase}_j{j}.json")))
    for phase in ("before", "after")
    for j in (1, 4)
}

def train_score(report):
    return report["engine"]["train_seconds"] + report["engine"]["score_seconds"]

speedup = {}
for j in (1, 4):
    b, a = train_score(runs[f"before_j{j}"]), train_score(runs[f"after_j{j}"])
    speedup[j] = round(b / a, 2)
    print(f"train+score jobs={j}: {b:.6f}s -> {a:.6f}s ({speedup[j]:.2f}x)")

# Cell identity: every baseline summary field, detector by detector.
fields = ("detector", "capable", "weak", "blind", "capable_fraction")

def summary(m):
    return [round(float(m[f]), 6) if f == "capable_fraction" else m[f] for f in fields]

for j in (1, 4):
    before = [summary(m) for m in runs[f"before_j{j}"]["maps"]]
    after = [summary(m) for m in runs[f"after_j{j}"]["maps"]]
    if before != after:
        print(f"FAIL: jobs={j} map summaries differ from baseline", file=sys.stderr)
        print(f"  baseline: {before}\n  current:  {after}", file=sys.stderr)
        sys.exit(1)
    failed = [(m["detector"], m["failed"]) for m in runs[f"after_j{j}"]["maps"] if m["failed"] != 0]
    if failed:
        sys.exit(f"FAIL: jobs={j} maps have failed cells: {failed}")
print("map summaries identical to baseline at both jobs counts")

if speedup[1] < 3.0:
    sys.exit(f"FAIL: jobs=1 speedup {speedup[1]:.2f}x below the 3x acceptance floor")

with open(out, "w") as f:
    json.dump(
        {
            "benchmark": "full-grid train+score (bench/main.exe --grid-only)",
            "speedup_train_score": {"jobs1": speedup[1], "jobs4": speedup[4]},
            "before": {"jobs1": runs["before_j1"], "jobs4": runs["before_j4"]},
            "after": {"jobs1": runs["after_j1"], "jobs4": runs["after_j4"]},
        },
        f,
        indent=2,
    )
    f.write("\n")
EOF

echo "wrote $OUT"
