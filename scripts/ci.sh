#!/usr/bin/env bash
# CI gate: the tier-1 test suite, one smoke run per CLI subsystem (faults,
# telemetry, run records, resume, scenarios, federation, chaos, serving, guard,
# guarded resume), the wall-clock benchmark's self-tests, its smoke runs
# (untraced and traced), a full-size run whose digests must equal
# bench/baseline.json, one smoke pair of the paired A/B script, and two
# run-record parity checks against HEAD.
#
# Usage: scripts/ci.sh   (from the repo root; needs pyproject's dev extra:
# python -m pip install -e ".[dev]")
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
    --drop-rate 0.3 --corrupt-rate 0.1 \
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

rounds = [e["fields"] for e in events if e.get("name") == "round.record"]
assert [r["round"] for r in rounds] == [0, 1], (
    f"expected one round.record event per round, got {len(rounds)}"
)
for fields in rounds:
    alphas = fields["alphas"]
    assert alphas, f"round {fields['round']} carries no per-client TACO alpha"
    assert all(0.0 <= a <= 1.0 for a in alphas.values()), alphas
    assert fields["uplink_bytes"] > 0 and fields["downlink_bytes"] > 0, fields["round"]
print(f"telemetry smoke ok: {len(events)} events, {len(names)} metric names, "
      f"{len(rounds)} round.record events")
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

echo "==> resume smoke (adult TACO: a resumed run writes the uninterrupted run's record)"
RESUME_ARGS=(
    --dataset adult --algorithm taco --clients 6 --train-size 200
    --local-steps 3 --introspect --json
)
rm -rf out/resume
python -m repro.cli run "${RESUME_ARGS[@]}" --rounds 4 \
    --record-dir out/resume/straight > /dev/null
python -m repro.cli run "${RESUME_ARGS[@]}" --rounds 2 \
    --checkpoint-every 2 --checkpoint-dir out/resume/checkpoint > /dev/null
python -m repro.cli run "${RESUME_ARGS[@]}" --rounds 4 \
    --checkpoint-dir out/resume/checkpoint --resume \
    --record-dir out/resume/resumed > /dev/null
python - <<'PY'
import json


def without_timing(kind):
    with open(f"out/resume/{kind}/adult-taco-s0/runrecord.json") as handle:
        record = json.load(handle)
    record.pop("timing")
    return record


straight, resumed = without_timing("straight"), without_timing("resumed")
rounds = [d["round"] for d in resumed["diagnostics"]]
assert resumed == straight, f"resumed record differs (diagnostics for rounds {rounds})"
print(f"resume smoke ok: records equal without timing, diagnostics for rounds {rounds}")
PY

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
python - <<'PY'
import glob, json

paths = glob.glob("out/federation/*/runrecord.json")
assert paths, "federation smoke wrote no run record"
for path in paths:
    traffic = json.load(open(path))["traffic"]
    assert traffic["uplink_bytes"] > 0, f"perfect-wire run billed no uplink bytes: {traffic}"
print("federation bytes ok:", traffic)
PY
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

echo "==> serving observability smoke (telemetry traces deliveries + Chrome trace export)"
python -m repro.cli federate --smoke --telemetry jsonl:out/serving.jsonl --json \
    > out/serving_summary.json
python - <<'PY'
import json

rounds = json.load(open("out/serving_summary.json"))["rounds"]
spans = [json.loads(line) for line in open("out/serving.jsonl")]
spans = [e for e in spans if e["type"] == "span"]
flushes = [s["attributes"] for s in spans if s["name"] == "serving.flush"]
deliveries = sum(s["name"] == "serving.delivery" for s in spans)
assert deliveries, "telemetry traced no deliveries"
assert len(flushes) == rounds, f"{len(flushes)} serving.flush spans for {rounds} rounds"
assert all(f["e2e_p99"] >= f["e2e_p50"] > 0 for f in flushes), flushes
print("delivery tracing ok:", {"deliveries": deliveries, "flushes": len(flushes)})
PY
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

echo "==> guarded resume smoke (a chaos run checkpointed mid-ladder writes the straight run's record)"
GUARD_ARGS=("${CHAOS_ARGS[@]}" --guard --lr-backoff 0.25)
rm -rf out/guard_resume
python -m repro.cli run "${GUARD_ARGS[@]}" --record-dir out/guard_resume/straight > /dev/null
python -m repro.cli run "${GUARD_ARGS[@]}" --rounds 1 \
    --checkpoint-every 1 --checkpoint-dir out/guard_resume/checkpoint > /dev/null
python - <<'PY'
import json

import numpy as np

checkpoint = "out/guard_resume/checkpoint"
meta = json.load(open(f"{checkpoint}/meta.json"))
ladder = {
    key.split("|")[1]: value
    for key, value in meta["guard_scalars"].items()
    if key.count("|") == 1 and key.startswith("recovery|")
}
assert meta["round"] == 1, meta["round"]
assert ladder["rollbacks_used"] >= 1 and ladder["lr_scale"] < 1.0, ladder
assert not ladder["aborted"], ladder
with np.load(f"{checkpoint}/arrays.npz") as archive:
    kept = [key for key in archive.files if key.endswith("|state|server|global_params")]
assert kept, "the guard ring holds no engine states"
print(f"mid-ladder checkpoint ok: round {meta['round']}, {len(kept)} kept states, "
      f"ladder {ladder}")
PY
python -m repro.cli run "${GUARD_ARGS[@]}" --checkpoint-dir out/guard_resume/checkpoint \
    --resume --record-dir out/guard_resume/resumed > /dev/null
python - <<'PY'
import json


def without_timing(kind):
    with open(f"out/guard_resume/{kind}/adult-fedavg-s3/runrecord.json") as handle:
        record = json.load(handle)
    record.pop("timing")
    return record


straight, resumed = without_timing("straight"), without_timing("resumed")
assert straight["guard"]["rollbacks"] >= 1, straight["guard"]
assert resumed == straight, "resumed guarded record differs"
print("guarded resume smoke ok: records equal without timing, guard", resumed["guard"])
PY

echo "==> fault-tolerance experiment smoke"
python -m pytest -q benchmarks/test_fault_tolerance.py --benchmark-disable

echo "==> benchmark self-tests"
python -m pytest -q bench/tests

echo "==> benchmark smoke run (four paper workloads, tiny sizes, checks on)"
python bench/run.py --smoke --check --out out/bench_smoke.json

echo "==> traced benchmark smoke run (every layer boundary wrapped by name)"
python bench/run.py --smoke --trace 1 --check --out out/bench_smoke_traced.json

echo "==> benchmark digests (each workload once at full size, against bench/baseline.json)"
python bench/run.py --seconds 0 --repeats 1 --check --out out/bench_digest.json
python - <<'PY'
import json

ran = json.load(open("out/bench_digest.json"))["workloads"]
baseline = json.load(open("bench/baseline.json"))["workloads"]
moved = [
    f"{name}: digest {ran[name]['digest']} != baseline {baseline[name]['digest']}"
    for name in sorted(baseline)
    if ran.get(name, {}).get("digest") != baseline[name]["digest"]
]
assert not moved, "final parameters moved:\n" + "\n".join(moved)
print("digests ok:", {name: ran[name]["digest"][:8] for name in sorted(ran)})
PY

echo "==> paired A/B plumbing (one smoke pair, HEAD against this tree)"
python scripts/bench_pairs.py HEAD --pairs 1 -- --smoke

echo "==> run-record parity (table2 on adult, HEAD against this tree)"
python scripts/record_parity.py HEAD -- table2 --datasets adult
python scripts/record_parity.py HEAD -- table2 --datasets adult --introspect

echo "CI green."
