"""One benchmark repeat in a fresh process: set up, run, verify, report.

Started by ``bench/run.py``, one child at a time::

    python bench/child.py --workload cnn_sync --seed 0 --size full \
        --workdir .bench_out/tmp/x [--traced] [--spans PATH]

It writes ``<workdir>/result.json``.  Set-up is timed from this file's
first statement, before ``repro`` is imported, until the workload's
environment is built (``build_environment`` for the sync engine,
``build_coordinator`` for the async one).  The run is timed from when the
hooks are installed until the last runrecord is written.  Untraced runs
wrap only two boundaries: ``Client.local_round`` (a call and step count)
and ``Server.run_aggregation``/``skip_round`` (a timestamp at each round
end); a traced run also wraps every layer in ``bench/layers.py``.
"""

import time

ENTERED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

#: Workload settings per size.  ``full`` sizes keep one repeat at 2-3 s,
#: so that a 20 s run holds six or more repeats; ``smoke`` sizes only
#: prove the plumbing.
WORKLOADS = {
    "cnn_sync": {
        "engine": "sync",
        "algorithms": ("taco",),
        "full": {
            "checkpoint_every": 10,
            "config": dict(
                dataset="fmnist", width_multiplier=0.25, num_clients=10,
                local_steps=4, batch_size=16, rounds=20, eval_every=1,
            ),
        },
        "smoke": {
            "checkpoint_every": 2,
            "config": dict(
                dataset="fmnist", width_multiplier=0.25, num_clients=3,
                local_steps=2, batch_size=16, rounds=3, train_size=60, test_size=40,
            ),
        },
    },
    "lstm_sync": {
        "engine": "sync",
        "algorithms": ("scaffold",),
        "full": {
            "checkpoint_every": 10,
            "config": dict(
                dataset="shakespeare", local_lr=1.0, num_clients=5,
                local_steps=10, batch_size=16, rounds=20, eval_every=1,
            ),
        },
        "smoke": {
            "checkpoint_every": 2,
            "config": dict(
                dataset="shakespeare", local_lr=1.0, num_clients=3,
                local_steps=2, batch_size=8, rounds=3, train_size=120, test_size=40,
            ),
        },
    },
    "mlp_cohort": {
        "engine": "sync",
        "algorithms": ("fedavg", "taco", "scaffold", "stem"),
        "full": {
            "checkpoint_every": 2,
            "config": dict(
                dataset="adult", num_clients=100, partition="dirichlet", phi=1.0,
                local_steps=4, batch_size=16, rounds=4, train_size=2000,
                test_size=500, eval_every=1,
            ),
        },
        "smoke": {
            "checkpoint_every": 2,
            "config": dict(
                dataset="adult", num_clients=10, partition="dirichlet", phi=1.0,
                local_steps=2, batch_size=8, rounds=2, train_size=200, test_size=80,
            ),
        },
    },
    "async_chaos": {
        "engine": "async",
        "full": {
            "checkpoint_every": 20,
            "config": dict(
                dataset="adult", algorithm="taco", population=1_000_000,
                cohort_size=20, buffer_size=10, local_steps=4, rounds=40,
                loss_rate=0.2, duplicate_rate=0.05, uplink_latency=0.05,
                downlink_latency=0.02, lease_timeout=2.0,
            ),
        },
        "smoke": {
            "checkpoint_every": 2,
            "config": dict(
                dataset="adult", algorithm="taco", population=10_000,
                cohort_size=6, buffer_size=3, local_steps=2, rounds=4,
                samples_per_client=16, batch_size=8, test_size=80,
                loss_rate=0.2, duplicate_rate=0.05, uplink_latency=0.05,
                downlink_latency=0.02, lease_timeout=2.0,
            ),
        },
    },
}


class Probe:
    """Counts local rounds and timestamps round ends, per training."""

    def __init__(self) -> None:
        self.local_rounds = 0
        self.local_steps = 0
        self.round_ends: list = []  # one list of timestamps per training
        self.windows: list = []  # [start, end] per training
        self._depth = 0

    def install(self) -> None:
        from repro.fl.client import Client
        from repro.fl.server import Server

        local_round = Client.local_round

        def counted(client, model, strategy, *args, **kwargs):
            self.local_rounds += 1
            self.local_steps += strategy.local_steps
            return local_round(client, model, strategy, *args, **kwargs)

        Client.local_round = counted
        for name in ("run_aggregation", "skip_round"):
            setattr(Server, name, self._round_end(getattr(Server, name)))

    def _round_end(self, fn):
        # run_aggregation falls back to skip_round; only the outer call ends a round.
        def timed(*args, **kwargs):
            self._depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth -= 1
                if not self._depth:
                    self.round_ends[-1].append(time.perf_counter())

        return timed

    def begin_training(self) -> None:
        self.round_ends.append([])
        self.windows.append([time.perf_counter(), None])

    def end_training(self) -> None:
        self.windows[-1][1] = time.perf_counter()


def prepare_sync(spec: dict, settings: dict, seed: int, workdir: Path):
    """Build the sync environment; return the run closure."""
    from repro.experiments.config import ExperimentConfig, target_for
    from repro.experiments.runner import build_environment, run_algorithm
    from repro.runrecord import recording_session, run_slug

    config = ExperimentConfig(seed=seed, **settings["config"])
    build_environment(config)

    def run(probe: Probe):
        trainings = []
        with recording_session(workdir / "records") as records:
            for name in spec["algorithms"]:
                probe.begin_training()
                result = run_algorithm(
                    config,
                    name,
                    checkpoint_every=settings["checkpoint_every"],
                    checkpoint_dir=workdir / "checkpoints" / name,
                )
                probe.end_training()
                trainings.append((result, records / run_slug(config, name) / "runrecord.json"))
        return trainings, target_for(config), config.rounds

    return run


def prepare_async(spec: dict, settings: dict, seed: int, workdir: Path):
    """Build the coordinator; return the run closure (``run_federation``'s body)."""
    from repro import runrecord
    from repro.experiments.config import DEFAULT_TARGETS
    from repro.federation.runner import FederateConfig, build_coordinator

    config = FederateConfig(seed=seed, **settings["config"])
    coordinator = build_coordinator(config)

    def run(probe: Probe):
        probe.begin_training()
        result = coordinator.run(
            config.rounds,
            checkpoint_every=settings["checkpoint_every"],
            checkpoint_dir=workdir / "checkpoints",
        )
        path = runrecord.write_run_record(
            runrecord.build_run_record(
                result,
                algorithm=config.algorithm,
                config=config,
                serving=coordinator.serving_summary(),
            ),
            workdir / "records" / "runrecord.json",
        )
        probe.end_training()
        return [(result, path)], DEFAULT_TARGETS[config.dataset], config.rounds

    return run


def verify(trainings, probe: Probe, target: float, rounds: int) -> dict:
    """Check the outputs and derive the quality numbers and the digest."""
    from repro.runrecord import load_run_record

    errors = []
    digest = hashlib.sha256()
    losses, accuracies, to_target = [], [], []
    for index, (result, path) in enumerate(trainings):
        records = result.history.records
        ends = probe.round_ends[index]
        start, end = probe.windows[index]
        final_loss = records[-1].test_loss if records else math.nan
        if result.diverged or not math.isfinite(final_loss):
            errors.append(f"training {index} diverged (final loss {final_loss})")
        record = load_run_record(path)
        if record["final"]["final_accuracy"] != result.final_accuracy:
            errors.append(f"training {index}: runrecord final accuracy disagrees with the run")
        digest.update(result.final_params.tobytes())
        losses.append(final_loss)
        accuracies.append(result.final_accuracy)
        if len(records) != rounds or len(ends) != rounds:
            errors.append(
                f"training {index}: {len(records)} rounds recorded, "
                f"{len(ends)} round ends seen, {rounds} configured"
            )
            continue
        # Wall time to the first round boundary after the evaluation that
        # first reaches the target (the training's end for the last round).
        hit = next((i for i, r in enumerate(records) if r.test_accuracy >= target), None)
        if hit is not None:
            boundary = ends[hit + 1] if hit + 1 < rounds else end
            to_target.append(boundary - start)
    reached = len(to_target) == len(trainings)
    return {
        "errors": errors,
        "digest": digest.hexdigest(),
        "final_loss": sum(losses) / len(losses),
        "final_accuracy": sum(accuracies) / len(accuracies),
        "time_to_target_s": sum(to_target) if reached else None,
        "aggregated": sum(
            r.aggregated for result, _ in trainings for r in result.history.records
        ),
        "round_intervals": [
            later - earlier
            for ends in probe.round_ends
            for earlier, later in zip(ends, ends[1:])
        ],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans", type=Path, default=None, help="write span JSONL here")
    args = parser.parse_args()

    spec = WORKLOADS[args.workload]
    prepare = prepare_sync if spec["engine"] == "sync" else prepare_async
    run = prepare(spec, spec[args.size], args.seed, args.workdir)
    setup_end = time.perf_counter()

    probe = Probe()
    probe.install()
    tracer = None
    if args.traced:
        import layers
        from tracer import Tracer

        tracer = Tracer(keep_spans=args.spans is not None, run_id=f"{args.workload}-s{args.seed}")
        layers.install(tracer)

    run_start = time.perf_counter()
    trainings, target, rounds = run(probe)
    run_end = time.perf_counter()

    report = {
        "setup_s": setup_end - ENTERED,
        "run_s": run_end - run_start,
        "local_rounds": probe.local_rounds,
        "local_steps": probe.local_steps,
        **verify(trainings, probe, target, rounds),
    }
    if tracer is not None:
        report["layers"] = {name: list(total) for name, total in tracer.totals().items()}
        if args.spans is not None:
            report["spans"] = tracer.write_jsonl(args.spans)
    (args.workdir / "result.json").write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
