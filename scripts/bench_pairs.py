"""Run bench/README's paired A/B: this tree against a parent revision.

    python scripts/bench_pairs.py PARENT_REV [--pairs N] [-- bench args]

    python scripts/bench_pairs.py HEAD~1                          # ten full pairs
    python scripts/bench_pairs.py HEAD~1 --pairs 1 -- --seed 1    # one seed-1 pair
    python scripts/bench_pairs.py HEAD --pairs 1 -- --smoke       # plumbing only

PARENT_REV is checked out into a temporary git worktree, removed
afterwards.  Each pair runs ``bench/run.py --check --out FILE [bench args]``
once in that worktree and once in this tree, alternating which side runs
first.  Both sides must run the same benchmark code, so the script refuses
(exit 2) when ``git diff PARENT_REV -- bench BENCHMARK.json`` is not empty.

It prints, per workload, how many pairs the change won on ``run_s``, then
``bench/run.py --compare`` over the parent's and the change's runs.  The
``--out`` files stay under ``.bench_out/pairs/`` for later comparisons.
The exit status is 1 when a run failed its checks, else 0: the verdicts
are for reading, because a few pairs cannot resolve a small difference.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)


def bench(tree: Path, out: Path, bench_args: List[str]) -> bool:
    """One ``bench/run.py`` run in ``tree``; True when it passed its checks."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    command = [sys.executable, "bench/run.py", "--check", "--out", str(out), *bench_args]
    print(f"--> {tree}: {' '.join(command[1:])}", flush=True)
    completed = subprocess.run(command, cwd=tree, env=env, stdout=subprocess.PIPE, text=True)
    print(completed.stdout.strip().splitlines()[-1] if completed.stdout.strip() else "", flush=True)
    return completed.returncode == 0


def run_s(out: Path) -> dict:
    workloads = json.loads(out.read_text())["workloads"]
    return {
        name: summary["end_to_end"]["run_s"]["value"]
        for name, summary in workloads.items()
        if "run_s" in summary.get("end_to_end", {})
    }


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    bench_args: List[str] = []
    if "--" in argv:
        split = argv.index("--")
        argv, bench_args = argv[:split], argv[split + 1 :]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", metavar="PARENT_REV")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    resolved = git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    if resolved.returncode != 0:
        print(f"error: {args.parent!r} is not a commit of this repository", file=sys.stderr)
        return 2
    diff = git("diff", "--stat", args.parent, "--", "bench", "BENCHMARK.json")
    if diff.returncode != 0 or diff.stdout.strip():
        print(
            f"error: bench/ or BENCHMARK.json differ from {args.parent}; "
            "both sides must run the same benchmark",
            file=sys.stderr,
        )
        return 2

    results = ROOT / ".bench_out" / "pairs" / time.strftime("%Y%m%d-%H%M%S")
    sides = {"parent": results / "parent", "change": results / "change"}
    for directory in sides.values():
        directory.mkdir(parents=True)
    worktree = Path(tempfile.mkdtemp(prefix="bench-parent-")) / "tree"
    added = git("worktree", "add", "--detach", str(worktree), resolved.stdout.strip())
    if added.returncode != 0:
        shutil.rmtree(worktree.parent, ignore_errors=True)
        print(f"error: cannot check out {args.parent}: {added.stderr.strip()}", file=sys.stderr)
        return 2
    trees = {"parent": worktree, "change": ROOT}
    wins: dict = {}
    failed = 0
    try:
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for name in order:
                out = sides[name] / f"pair-{pair:02d}.json"
                failed += not bench(trees[name], out, bench_args)
            if all((sides[name] / f"pair-{pair:02d}.json").exists() for name in sides):
                before = run_s(sides["parent"] / f"pair-{pair:02d}.json")
                after = run_s(sides["change"] / f"pair-{pair:02d}.json")
                for workload in before.keys() & after.keys():
                    wins.setdefault(workload, 0)
                    wins[workload] += after[workload] < before[workload]
    finally:
        git("worktree", "remove", "--force", str(worktree))
        shutil.rmtree(worktree.parent, ignore_errors=True)
        git("worktree", "prune")

    print(f"\nrun_s pairs won by the change ({args.pairs} pairs, results in {results}):")
    for workload, count in sorted(wins.items()):
        print(f"  {workload:12s} {count} of {args.pairs}")
    print()
    subprocess.run(
        [sys.executable, "bench/run.py", "--compare", str(sides["parent"]), str(sides["change"])],
        cwd=ROOT,
    )
    if failed:
        print(f"error: {failed} benchmark run(s) failed their checks", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    # SIGTERM unwinds like an exception, so the worktree is still removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
