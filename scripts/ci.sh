#!/usr/bin/env bash
# CI gate: the tier-1 test suite, one smoke run per CLI subsystem (faults,
# telemetry, run records, scenarios, federation, chaos, serving, guard),
# and the wall-clock benchmark's self-tests plus its smoke run.
#
# Usage: scripts/ci.sh   (from the repo root; needs numpy, pytest,
# pytest-benchmark and hypothesis)
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "==> tier-1 test suite"
python -m pytest -x -q

echo "==> fault-injection smoke run (30% drops + 10% NaN corruption)"
python -m repro.cli run \
    --dataset adult --algorithm taco --clients 6 --rounds 4 \
    --train-size 200 --test-size 80 \
    --drop-rate 0.3 --corrupt-rate 0.1 --json \
    | python -c '
import json, sys
out = json.load(sys.stdin)
assert not out["diverged"], "fault smoke run diverged"
faults = out["faults"]
assert faults["dropped"] or faults["quarantined"], f"no faults injected: {faults}"
print("smoke ok:", faults)
'

echo "==> telemetry smoke run (2-round TACO, JSONL trace to out/trace.jsonl)"
python -m repro.cli run \
    --dataset adult --algorithm taco --clients 6 --rounds 2 \
    --train-size 200 --test-size 80 \
    --track-traffic --drop-rate 0.3 --corrupt-rate 0.1 \
    --telemetry jsonl:out/trace.jsonl --json > /dev/null
python - <<'PY'
import json

events = [json.loads(line) for line in open("out/trace.jsonl")]
spans = {e["name"] for e in events if e["type"] == "span"}
missing_spans = {"round", "client", "aggregate"} - spans
assert not missing_spans, f"trace missing spans: {missing_spans}"

metrics = [e for e in events if e["type"] == "metrics"]
assert metrics, "trace has no terminal metrics snapshot"
names = set(metrics[-1]["metrics"])
required = {
    "round.wall_seconds",
    "client.local_steps",
    "transport.uplink_bytes",
    "transport.downlink_bytes",
    "agg.quarantined",
}
missing = required - names
assert not missing, f"trace missing metrics: {missing}"
print(f"telemetry smoke ok: {len(events)} events, {len(names)} metric names")
PY

echo "==> introspection + run-record smoke (report + self-diff)"
python -m repro.cli run \
    --dataset adult --algorithm taco --clients 6 --rounds 2 \
    --train-size 200 --test-size 80 \
    --introspect --record-dir out/runs --json > /dev/null
python -m repro.cli report out/runs/*/runrecord.json --out out/report.html
python -m repro.cli report out/runs/*/runrecord.json --ascii > /dev/null
RECORD="$(ls out/runs/*/runrecord.json | head -n 1)"
python -m repro.cli diff "$RECORD" "$RECORD"

echo "==> scenario matrix smoke (2 attacks x 2 defences x 1 seed)"
python -m repro.cli scenarios --smoke \
    --attacks ipm adaptive --defences none geomedian --seeds 0 \
    --out out/matrix.json --report out/matrix.html > /dev/null
python - <<'PY'
from repro.scenarios import load_matrix

matrix = load_matrix("out/matrix.json")
assert len(matrix["cells"]) == 6, f"expected 6 cells, got {len(matrix['cells'])}"
verdicts = {v["attack"]: v for v in matrix["verdicts"]}
for attack, verdict in verdicts.items():
    assert verdict["degrades"], f"{attack} did not degrade undefended fedavg"
    assert verdict["contained_by"], f"no defence contained {attack}"
print("scenario smoke ok:",
      {a: v["contained_by"] for a, v in sorted(verdicts.items())})
PY

echo "==> federation smoke (1k-client registry, semi-async, end to end)"
python -m repro.cli federate --smoke --json --record-dir out/federation \
    | python -c '
import json, sys
out = json.load(sys.stdin)
assert not out["diverged"], "federation smoke run diverged"
assert out["population"] == 1000 and out["rounds"] == 3, out
assert out["virtual_time"] > 0, "virtual clock never advanced"
print("federation smoke ok:", {k: out[k] for k in
      ("population", "cohort_size", "buffer_size", "mean_staleness")})
'
python -m repro.cli report out/federation/*/runrecord.json --ascii > /dev/null

echo "==> network chaos smoke (graded loss grid + determinism invariants)"
python -m repro.cli chaos --smoke --json --out out/chaos.json \
    | python -c '
import json, sys
chaos = json.load(sys.stdin)["chaos"]
invariants = chaos["invariants"]
assert all(invariants.values()), "invariants failed: %s" % invariants
assert chaos["cells"], "chaos grid produced no cells"
lossy = [c for c in chaos["cells"] if c["loss_rate"] > 0]
assert any(
    c["retried_uploads"] or c["dropped_uploads"] for c in lossy
), "lossy cells show no retries or drops"
print("chaos smoke ok:", chaos["loss_thresholds"])
'

echo "==> serving observability smoke (delivery tracing + Chrome trace export)"
python -m repro.cli federate --smoke --trace-deliveries \
    --telemetry jsonl:out/serving.jsonl --json \
    | python -c '
import json, sys
out = json.load(sys.stdin)
serving = out["serving"]
assert serving["deliveries"] > 0, "tracing recorded no deliveries"
assert len(serving["rounds"]) == out["rounds"], serving
assert all(r["e2e_p99"] >= r["e2e_p50"] > 0 for r in serving["rounds"]), serving
print("delivery tracing ok:", {"deliveries": serving["deliveries"],
      "rounds": len(serving["rounds"])})
'
python -m repro.cli trace export out/serving.jsonl --out out/serving_chrome.json
python - <<'PY'
import json

trace = json.load(open("out/serving_chrome.json"))
events = trace["traceEvents"]
spans = [e for e in events if e["ph"] == "X"]
names = {e["name"] for e in spans}
missing = {"serving.delivery", "serving.compute", "serving.buffer",
           "serving.flush"} - names
assert not missing, f"chrome trace missing span names: {missing}"
assert all(isinstance(e["ts"], int) and isinstance(e["pid"], int)
           for e in spans), "non-integer ts/pid in chrome trace"
print(f"trace export ok: {len(events)} events, {len(names)} span names")
PY

echo "==> serving load-test smoke (4-point rate sweep + capacity report)"
mkdir -p out
python -m repro.cli loadtest --smoke --out out/loadtest.json > /dev/null
python -m repro.cli report out/loadtest.json --out out/loadtest.html

echo "==> guard chaos smoke (stealth-NaN + hot lr, quarantine off)"
CHAOS_ARGS=(
    --dataset adult --algorithm fedavg --clients 6 --rounds 3
    --local-steps 3 --train-size 200 --test-size 80 --seed 3
    --global-lr 1.0 --corrupt-rate 0.5 --corrupt-mode nan-stealth
    --no-quarantine --json
)
python -m repro.cli run "${CHAOS_ARGS[@]}" --guard --lr-backoff 0.25 \
    | python -c '
import json, sys
out = json.load(sys.stdin)
assert not out["diverged"], "guarded chaos run diverged"
guard = out["guard"]
assert guard["rollbacks"] >= 1, f"guard never rolled back: {guard}"
assert not guard["aborted"], f"guard aborted: {guard}"
print("guard smoke ok:", guard)
'
python -m repro.cli run "${CHAOS_ARGS[@]}" \
    | python -c '
import json, sys
out = json.load(sys.stdin)
assert out["diverged"], "unguarded chaos run should have diverged"
print("unguarded control ok: diverged as expected")
'

echo "==> fault-tolerance experiment smoke"
python -m pytest -q benchmarks/test_fault_tolerance.py --benchmark-disable

echo "==> benchmark self-tests"
python -m pytest -q bench/tests

echo "==> benchmark smoke run (four paper workloads, tiny sizes, checks on)"
python bench/run.py --smoke --check --out out/bench_smoke.json

echo "CI green."
