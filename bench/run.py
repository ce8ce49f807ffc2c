"""Wall-clock benchmark of the paper workloads: measure, trace, check, compare.

    python bench/run.py                                   # all workloads, seed 0
    python bench/run.py --workload cnn_sync --seed 3 --seconds 20 --trace 0
    python bench/run.py --workload async_chaos --trace 1 --spans .bench_out/spans
    python bench/run.py --smoke                           # tiny sizes, a few seconds
    python bench/run.py --seed 0 --out a.json --check     # exit 1 unless correct
    python bench/run.py --compare a.json b.json           # verdict per workload x metric
    python bench/run.py --compare parent_runs/ change_runs/   # directories of --out files

Each repeat of a workload runs in a fresh child process (``bench/child.py``),
started one after another from this process: a closed loop with one run in
flight.  Children are started until ``--seconds`` is used up, with at least
``--repeats`` of them.  Children use one BLAS thread.  ``--trace 0`` reports
the end-to-end metrics of BENCHMARK.json from untraced children; ``--trace 1``
alternates untraced and traced children and reports the per-layer metrics.

Every run is checked: each child must exit 0 without divergence, its
runrecords must validate, all repeats (traced ones included) must produce the
same final-parameter sha256, and where ``bench/baseline.json`` holds the same
workload, seed and size, the final test loss must lie within 1% of it.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
BASELINE_PATH = BENCH / "baseline.json"
WORK = ROOT / ".bench_out"

#: A child is killed when it outlives this many seconds after its workload started.
WORKLOAD_DEADLINE_S = 170.0
#: Relative tolerance of the final test loss against the stored baseline.
LOSS_TOLERANCE = 0.01
BLAS_THREADS = 1
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: List[float], q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def quartiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


def stat(value: float, unit: str, samples: List[float]) -> dict:
    """A reported metric: its value, plus the per-repeat samples and their quartiles."""
    return {
        "value": value,
        "unit": unit,
        "n": len(samples),
        "quartiles": quartiles(samples),
        "samples": samples,
    }


def best_stat(samples: List[float], unit: str, better: str = "lower") -> dict:
    """The best repeat's value.

    The host's speed changes in steps of up to ~1.8x that last from seconds
    to minutes; the best repeat of a run measures the program, the others
    also measure the neighbours.
    """
    return stat(min(samples) if better == "lower" else max(samples), unit, samples)


def median_stat(samples: List[float], unit: str) -> dict:
    return stat(statistics.median(samples), unit, samples)


# ----------------------------------------------------------------------
# Children
# ----------------------------------------------------------------------
def run_child(
    workload: str, seed: int, size: str, traced: bool, deadline: float, spans: Optional[Path]
) -> dict:
    """Run one repeat; returns its report (``error`` set when it failed)."""
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    command = [
        sys.executable, str(BENCH / "child.py"),
        "--workload", workload, "--seed", str(seed), "--size", size,
        "--workdir", str(workdir),
    ]
    if traced:
        command.append("--traced")
        if spans is not None:
            command += ["--spans", str(spans / f"{workload}-s{seed}.jsonl")]
    env = dict(os.environ, **{name: str(BLAS_THREADS) for name in BLAS_VARIABLES})
    started = time.perf_counter()
    log_path = workdir / "child.log"
    try:
        with log_path.open("wb") as log:
            process = subprocess.Popen(command, stdout=log, stderr=subprocess.STDOUT, env=env)
            # wait4 gives this child's own peak RSS (RUSAGE_CHILDREN would
            # give the maximum over every child so far).
            try:
                while True:
                    pid, status, usage = os.wait4(process.pid, os.WNOHANG)
                    if pid:
                        break
                    if time.perf_counter() > deadline:
                        raise TimeoutError
                    time.sleep(0.01)
            except BaseException as interrupt:
                process.kill()
                pid, status, usage = os.wait4(process.pid, 0)
                if not isinstance(interrupt, TimeoutError):
                    raise
            process.returncode = os.waitstatus_to_exitcode(status)
        report = {"traced": traced, "wall_s": time.perf_counter() - started}
        result_path = workdir / "result.json"
        if process.returncode != 0 or not result_path.exists():
            tail = log_path.read_text(errors="replace").strip().splitlines()[-5:]
            report["error"] = f"child exited {process.returncode}: " + " | ".join(tail)
            return report
        report.update(json.loads(result_path.read_text()))
        report["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # Linux reports KiB
        if report["errors"]:
            report["error"] = "; ".join(report["errors"])
        return report
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(
    workload: str, seed: int, size: str, seconds: float, repeats: int, trace: bool,
    spans: Optional[Path],
) -> List[dict]:
    """Start children one at a time until the time budget is spent.

    With ``trace`` children alternate untraced/traced, in pairs.
    """
    started = time.perf_counter()
    deadline = started + WORKLOAD_DEADLINE_S
    per_step = 2 if trace else 1
    children: List[dict] = []
    while True:
        steps = len(children) // per_step
        if steps >= repeats:
            typical = statistics.median(c["wall_s"] for c in children) * per_step
            if time.perf_counter() - started + typical > seconds:
                break
        for traced in (False, True)[:per_step]:
            children.append(run_child(workload, seed, size, traced, deadline, spans))
        if time.perf_counter() > deadline:
            break
    return children


# ----------------------------------------------------------------------
# Summaries
# ----------------------------------------------------------------------
def baseline_loss(workload: str, seed: int, size: str) -> Optional[float]:
    if not BASELINE_PATH.exists():
        return None
    baseline = json.loads(BASELINE_PATH.read_text())
    if baseline["meta"]["seed"] != seed or baseline["meta"]["size"] != size:
        return None
    entry = baseline["workloads"].get(workload)
    return entry["quality"]["final_loss"] if entry else None


def check(children: List[dict], expected_loss: Optional[float]) -> List[str]:
    """Mark failed children (``error``); return every problem found."""
    problems = []
    reference = next((c["digest"] for c in children if "error" not in c), None)
    for index, child in enumerate(children):
        if "error" not in child:
            if child["digest"] != reference:
                child["error"] = f"final-parameter sha256 {child['digest'][:12]} differs from {reference[:12]}"
            elif expected_loss is not None and (
                abs(child["final_loss"] - expected_loss) > LOSS_TOLERANCE * abs(expected_loss)
            ):
                child["error"] = (
                    f"final loss {child['final_loss']:.6g} is outside "
                    f"{LOSS_TOLERANCE:.0%} of the baseline {expected_loss:.6g}"
                )
        if "error" in child:
            kind = "traced" if child["traced"] else "untraced"
            problems.append(f"repeat {index} ({kind}): {child['error']}")
    return problems


def end_to_end(children: List[dict]) -> Dict[str, dict]:
    """The end-to-end metrics of untraced children.

    Every repeat runs the same rounds bit for bit, so the best time of each
    round over the repeats strips the host's noise from that round; the
    round percentiles are taken over those per-round bests.  Their samples
    are the percentiles of each repeat on its own.
    """
    intervals = [c["round_intervals"] for c in children]
    best_rounds = [min(times) for times in zip(*intervals)]

    def rounds(q: float) -> dict:
        return stat(percentile(best_rounds, q), "s", [percentile(r, q) for r in intervals])

    return {
        "setup_s": best_stat([c["setup_s"] for c in children], "s"),
        "run_s": best_stat([c["run_s"] for c in children], "s"),
        "steps_per_s": best_stat(
            [c["local_steps"] / c["run_s"] for c in children], "steps/s", "higher"
        ),
        "round_s.p50": rounds(50),
        "round_s.p90": rounds(90),
        "peak_rss_mb": median_stat([c["peak_rss_mb"] for c in children], "MB"),
    }


def per_layer(traced: List[dict], untraced_run_s: float) -> Dict[str, dict]:
    """The per-layer metrics of the fastest traced child (its shares sum to 1)."""
    fastest = min(traced, key=lambda c: c["run_s"])

    def metric(name: str, unit: str, of) -> None:
        metrics[name] = stat(of(fastest), unit, [of(c) for c in traced])

    def unattributed(c: dict) -> float:
        return c["run_s"] - sum(self_s for self_s, _ in c["layers"].values())

    metrics: Dict[str, dict] = {}
    for layer in fastest["layers"]:
        metric(f"{layer}.self_s", "s", lambda c: c["layers"][layer][0])
        metric(f"{layer}.calls", "count", lambda c: c["layers"][layer][1])
        metric(f"{layer}.share", "fraction", lambda c: c["layers"][layer][0] / c["run_s"])
    metric("unattributed.self_s", "s", unattributed)
    metric("unattributed.share", "fraction", lambda c: unattributed(c) / c["run_s"])
    metric("trace.overhead_ratio", "ratio", lambda c: c["run_s"] / untraced_run_s - 1.0)
    metric("federation.useful_ratio", "ratio", lambda c: c["aggregated"] / c["local_rounds"])
    return metrics


def summarize(workload: str, seed: int, size: str, children: List[dict]) -> dict:
    problems = check(children, baseline_loss(workload, seed, size))
    good = [c for c in children if "error" not in c]
    untraced = [c for c in good if not c["traced"]]
    traced = [c for c in good if c["traced"]]
    summary = {
        "correct": not problems and bool(untraced),
        "attempted": len(children),
        "failed": len(children) - len(good),
        "problems": problems,
    }
    if untraced:
        first = untraced[0]
        reached = [c["time_to_target_s"] for c in untraced if c["time_to_target_s"] is not None]
        summary["digest"] = first["digest"]
        summary["quality"] = {
            "final_loss": first["final_loss"],
            "final_accuracy": first["final_accuracy"],
            "time_to_target_s": statistics.median(reached) if reached else None,
        }
        summary["end_to_end"] = end_to_end(untraced)
        if traced:
            summary["per_layer"] = per_layer(traced, summary["end_to_end"]["run_s"]["value"])
    return summary


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def print_table(workload: str, summary: dict, names: List[str]) -> None:
    status = "ok" if summary["correct"] else "FAILED"
    print(f"== {workload}: {status}, {summary['failed']} of {summary['attempted']} repeats failed")
    for problem in summary["problems"]:
        print(f"   ! {problem}")
    quality = summary.get("quality")
    if quality:
        ttt = quality["time_to_target_s"]
        print(
            f"   final_loss {quality['final_loss']:.6g} nats, final_accuracy "
            f"{quality['final_accuracy']:.4f}, time_to_target_s "
            + (f"{ttt:.4g}" if ttt is not None else "not reached")
        )
    metrics = {**summary.get("end_to_end", {}), **summary.get("per_layer", {})}
    for name in names:
        if name in metrics:
            m = metrics[name]
            q1, q3 = m["quartiles"]
            print(
                f"   {name:34s} {m['value']:12.6g} {m['unit']:8s} n={m['n']:<5d}"
                f" q1={q1:.6g} q3={q3:.6g}"
            )


def result_line(summaries: Dict[str, dict], names: List[str], section: str) -> dict:
    """The last output line; metric names get a workload prefix when several ran."""
    metrics = {}
    for workload, summary in summaries.items():
        values = summary.get(section, {})
        for name in names:
            if name in values:
                key = name if len(summaries) == 1 else f"{workload}.{name}"
                metrics[key] = {"value": values[name]["value"], "unit": values[name]["unit"]}
    return {
        "correct": all(s["correct"] for s in summaries.values())
        and all(n in s.get(section, {}) for s in summaries.values() for n in names),
        "attempted": sum(s["attempted"] for s in summaries.values()),
        "failed": sum(s["failed"] for s in summaries.values()),
        "metrics": metrics,
    }


# ----------------------------------------------------------------------
# Compare
# ----------------------------------------------------------------------
def verdict(a: dict, b: dict, better: str, bound: float) -> tuple:
    """(relative change of B against A, verdict), the change signed so + is worse."""
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (b["value"] - a["value"]) / abs(a["value"])
    spread = max(
        (m["quartiles"][1] - m["quartiles"][0]) / abs(m["value"]) for m in (a, b)
    )
    if spread > bound:
        # Too noisy to judge, unless every repeat of B beats every repeat of A.
        separated = max(sign * v for v in b["samples"]) < min(sign * v for v in a["samples"])
        return change, "better" if separated else "unresolved"
    if change > bound:
        return change, "worse-beyond-bound"
    if change < -bound:
        return change, "better"
    return change, "within-bound"


def side(results: List[dict], workload: str, metric: str) -> Optional[dict]:
    """One side of a comparison: a single run as reported, or the median of several runs."""
    entries = [
        r[workload]["end_to_end"][metric]
        for r in results
        if metric in r.get(workload, {}).get("end_to_end", {})
    ]
    if len(entries) <= 1:
        return entries[0] if entries else None
    return median_stat([e["value"] for e in entries], entries[0]["unit"])


def load_results(path: Path) -> List[dict]:
    """The ``workloads`` of one ``--out`` file, or of every JSON file in a directory."""
    paths = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(p.read_text())["workloads"] for p in paths]


def compare(path_a: Path, path_b: Path, spec: dict) -> int:
    """Print one row per workload x end-to-end metric; 1 if any got worse.

    A side given as a directory is summarised over its runs (median and
    quartiles of the reported values); a single file falls back to the
    quartiles over its repeats.
    """
    a, b = load_results(path_a), load_results(path_b)
    worse = 0
    print(f"{'workload':12s} {'metric':14s} {'A value [q1, q3]':32s} {'B value [q1, q3]':32s} {'change':>8s}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            ma = side(a, workload, metric["name"])
            mb = side(b, workload, metric["name"])
            if ma is None or mb is None:
                continue
            change, result = verdict(ma, mb, metric["better"], metric["bound"])
            worse += result == "worse-beyond-bound"
            cells = [
                f"{m['value']:.5g} [{m['quartiles'][0]:.5g}, {m['quartiles'][1]:.5g}]"
                for m in (ma, mb)
            ]
            print(f"{workload:12s} {metric['name']:14s} {cells[0]:32s} {cells[1]:32s} {change:+8.2%}  {result}")
    return 1 if worse else 0


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    spec = json.loads(SPEC_PATH.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="time budget per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=3,
                        help="minimum repeats (pairs with --trace 1) per workload")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, two repeats, no time budget")
    parser.add_argument("--spans", type=Path, default=None,
                        help="directory for span JSONL of traced repeats")
    parser.add_argument("--out", type=Path, default=None, help="write the full result JSON here")
    parser.add_argument("--check", action="store_true", help="exit 1 unless every check passed")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare, spec)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    size = "smoke" if args.smoke else "full"
    seconds = 0.0 if args.smoke else args.seconds
    repeats = 2 if args.smoke else args.repeats
    section = "per_layer" if args.trace else "end_to_end"
    declared = [m["name"] for m in spec[section]]
    shown = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    summaries = {}
    for workload in args.workload or names:
        children = measure(workload, args.seed, size, seconds, repeats, bool(args.trace), args.spans)
        summaries[workload] = summarize(workload, args.seed, size, children)
        print_table(workload, summaries[workload], shown)

    if args.out is not None:
        meta = {
            "seed": args.seed,
            "size": size,
            "seconds": seconds,
            "trace": args.trace,
            "blas_threads": BLAS_THREADS,
            "nproc": os.cpu_count(),
            "python": sys.version.split()[0],
        }
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"meta": meta, "workloads": summaries}, indent=1))
    line = result_line(summaries, declared, section)
    print(json.dumps(line))
    return 1 if args.check and not line["correct"] else 0


if __name__ == "__main__":
    # SIGTERM unwinds like an exception, so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
