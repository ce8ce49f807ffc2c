"""Command-line interface: run federated experiments from the shell.

Examples::

    python -m repro.cli run --dataset fmnist --algorithm taco --rounds 12
    python -m repro.cli run --algorithm taco --drop-rate 0.3 --corrupt-rate 0.1
    python -m repro.cli run --algorithm fedavg --guard --corrupt-rate 0.3 --corrupt-mode nan-stealth
    python -m repro.cli run --algorithm taco --checkpoint-every 5 --checkpoint-dir ckpt
    python -m repro.cli run --algorithm taco --checkpoint-dir ckpt --resume
    python -m repro.cli compare --dataset adult --algorithms fedavg taco
    python -m repro.cli experiment table5 --datasets adult fmnist
    python -m repro.cli scenarios --smoke --out out/matrix.json
    python -m repro.cli scenarios --attacks ipm adaptive --defences none geomedian guard
    python -m repro.cli run --algorithm taco --introspect --record-dir out/runs
    python -m repro.cli federate --smoke --telemetry jsonl:out/trace.jsonl
    python -m repro.cli loadtest --trace diurnal --rates 0.5 2 8 32 --out out/loadtest.json
    python -m repro.cli trace export out/trace.jsonl --out out/trace_chrome.json
    python -m repro.cli report out/runs/adult-taco-s0/runrecord.json --out out/report.html
    python -m repro.cli diff out/runs/a/runrecord.json out/runs/b/runrecord.json
    python -m repro.cli list
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys
from typing import List, Optional

from .algorithms import algorithm_names
from .analysis import render_table
from .autograd import default_dtype
from .data import dataset_names
from .experiments import (
    ExperimentConfig,
    default_config_for,
    run_algorithm,
    run_suite,
    target_for,
)
from .faults import CORRUPTION_MODES, FaultPlan
from .fl.degradation import DegradationPolicy
from .guard import GuardPolicy
from .runrecord import RunRecordError, recording_session
from .telemetry import make_exporter, telemetry_session


def _rate(text: str) -> float:
    """Argparse type for probabilities: a float constrained to [0, 1]."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"rate must be in [0, 1], got {value}")
    return value


def _backoff(text: str) -> float:
    """Argparse type for the lr-backoff multiplier: a float in (0, 1]."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"backoff must be in (0, 1], got {value}")
    return value


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", default="fmnist", choices=sorted(dataset_names()))
    parser.add_argument("--clients", type=int, default=None, help="number of clients")
    parser.add_argument("--rounds", type=int, default=None, help="communication rounds T")
    parser.add_argument("--local-steps", type=int, default=None, help="local updates K")
    parser.add_argument("--batch-size", type=int, default=None, help="mini-batch size s")
    parser.add_argument("--lr", type=float, default=None, help="local learning rate eta_l")
    parser.add_argument(
        "--global-lr", type=float, default=None,
        help="server learning rate eta_g (default: K * eta_l)",
    )
    parser.add_argument("--train-size", type=int, default=None)
    parser.add_argument("--test-size", type=int, default=None)
    parser.add_argument("--partition", default=None, choices=["synthetic", "dirichlet"])
    parser.add_argument("--phi", type=float, default=None, help="Dirichlet concentration")
    parser.add_argument("--freeloaders", type=int, default=None, help="freeloader count")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--dtype", default="float64", choices=["float64", "float32"],
        help="compute dtype: float64 is the bit-exact default; float32 trades "
        "the bit-exactness guarantees for speed and half the memory traffic",
    )
    parser.add_argument(
        "--batched", action="store_true",
        help="vectorize local training across the cohort for MLP models (one "
        "(K, P) batched program per round; see docs/PERFORMANCE.md) — other "
        "models, or omitting the flag, keep the sequential oracle",
    )


def _add_fault_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("fault injection / graceful degradation")
    group.add_argument("--drop-rate", type=_rate, default=0.0, help="client crash probability")
    group.add_argument("--corrupt-rate", type=_rate, default=0.0, help="payload corruption probability")
    group.add_argument(
        "--corrupt-mode", nargs="+", default=["nan"], choices=list(CORRUPTION_MODES),
        help="corruption modes drawn from when an upload is corrupted",
    )
    group.add_argument("--straggler-rate", type=_rate, default=0.0, help="straggler probability")
    group.add_argument("--transient-rate", type=_rate, default=0.0, help="transient upload-error probability")
    group.add_argument("--fault-seed", type=int, default=None, help="fault plan seed (default: config seed)")
    group.add_argument("--round-deadline", type=float, default=None, help="straggler deadline in sim-seconds")
    group.add_argument("--over-selection", type=_rate, default=0.0, help="extra selection fraction")
    group.add_argument("--min-quorum", type=int, default=1, help="min surviving updates per round")
    group.add_argument(
        "--no-quarantine", action="store_true",
        help="disable the non-finite upload quarantine (chaos-testing the guard)",
    )


def _add_guard_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("self-healing guard (repro.guard)")
    group.add_argument(
        "--guard", action="store_true",
        help="enable anomaly detection + automatic rollback/recovery",
    )
    group.add_argument(
        "--rollback-window", type=int, default=3, metavar="K",
        help="known-good snapshots kept for rollback (default: 3)",
    )
    group.add_argument(
        "--max-rollbacks", type=int, default=4, metavar="N",
        help="rollback budget before the guard aborts the run (default: 4)",
    )
    group.add_argument(
        "--lr-backoff", type=_backoff, default=0.5, metavar="FRAC",
        help="server-lr multiplier applied on every rollback, in (0, 1] (default: 0.5)",
    )


def _add_telemetry_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("telemetry")
    group.add_argument(
        "--telemetry", action="append", default=None, metavar="SPEC",
        help="exporter spec (repeatable): jsonl:PATH, prom:PATH or console",
    )
    group.add_argument(
        "--track-traffic", action="store_true",
        help="route uploads through an identity Transport to count bytes",
    )
    group.add_argument(
        "--introspect", action="store_true",
        help="collect per-round algorithm diagnostics (alpha_i, drift "
        "cosines, live Y_t) into the run record; --telemetry does too",
    )
    group.add_argument(
        "--record-dir", default=None, metavar="DIR",
        help="write a schema-versioned runrecord.json per run under DIR "
        "(DIR/<dataset>-<algorithm>-s<seed>/runrecord.json)",
    )


def _add_checkpoint_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("checkpointing")
    group.add_argument("--checkpoint-dir", default=None, help="directory for run checkpoints")
    group.add_argument("--checkpoint-every", type=int, default=0, help="checkpoint every N rounds")
    group.add_argument(
        "--resume", action="store_true",
        help="resume from --checkpoint-dir and continue to --rounds total rounds",
    )


def _checkpoint_flags_error(args: argparse.Namespace) -> Optional[str]:
    """The usage error in a command's checkpoint flags, if any."""
    if args.resume and not args.checkpoint_dir:
        return "--resume requires --checkpoint-dir"
    if args.checkpoint_every and not args.checkpoint_dir:
        return "--checkpoint-every requires --checkpoint-dir"
    return None


def _fault_plan_from_args(args: argparse.Namespace, config: ExperimentConfig) -> Optional[FaultPlan]:
    if not (args.drop_rate or args.corrupt_rate or args.straggler_rate or args.transient_rate):
        return None
    return FaultPlan(
        seed=args.fault_seed if args.fault_seed is not None else config.seed,
        drop_rate=args.drop_rate,
        corrupt_rate=args.corrupt_rate,
        corruption_modes=tuple(args.corrupt_mode),
        straggler_rate=args.straggler_rate,
        transient_rate=args.transient_rate,
    )


def _degradation_from_args(args: argparse.Namespace) -> Optional[DegradationPolicy]:
    if (
        args.round_deadline is None
        and args.over_selection == 0.0
        and args.min_quorum == 1
        and not args.no_quarantine
    ):
        return None  # a fault plan alone still gets the default policy
    return DegradationPolicy(
        round_deadline=args.round_deadline,
        over_selection=args.over_selection,
        min_quorum=args.min_quorum,
        quarantine_nonfinite=not args.no_quarantine,
    )


def _guard_from_args(args: argparse.Namespace) -> Optional[GuardPolicy]:
    if not args.guard:
        return None
    return GuardPolicy(
        rollback_window=args.rollback_window,
        max_rollbacks=args.max_rollbacks,
        lr_backoff=args.lr_backoff,
    )


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    config = default_config_for(args.dataset)
    mapping = {
        "clients": "num_clients",
        "rounds": "rounds",
        "local_steps": "local_steps",
        "batch_size": "batch_size",
        "lr": "local_lr",
        "train_size": "train_size",
        "test_size": "test_size",
        "partition": "partition",
        "phi": "phi",
        "freeloaders": "num_freeloaders",
        "seed": "seed",
        "global_lr": "global_lr",
    }
    overrides = {
        field: getattr(args, attr)
        for attr, field in mapping.items()
        if getattr(args, attr, None) is not None
    }
    if getattr(args, "batched", False):
        overrides["batched_execution"] = True
    return config.with_overrides(**overrides)


def _result_row(name: str, result, target: float, total_rounds: int) -> List[str]:
    rounds_hit = result.history.rounds_to_accuracy(target)
    return [
        name,
        "x" if result.diverged else f"{result.final_accuracy:.2%}",
        f"{result.output_accuracy:.2%}",
        str(rounds_hit) if rounds_hit else f"{total_rounds}+",
        f"{result.history.cumulative_times[-1]:.2f}s",
    ]


def cmd_run(args: argparse.Namespace) -> int:
    """``repro run`` — train one algorithm and print/emit its metrics."""
    try:
        config = _config_from_args(args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    checkpoint_error = _checkpoint_flags_error(args)
    if checkpoint_error:
        print(checkpoint_error, file=sys.stderr)
        return 2
    try:
        fault_plan = _fault_plan_from_args(args, config)
        degradation = _degradation_from_args(args)
        guard = _guard_from_args(args)
        exporters = [make_exporter(spec) for spec in (args.telemetry or [])]
    except ValueError as error:
        print(f"invalid fault/degradation/telemetry arguments: {error}", file=sys.stderr)
        return 2
    transport = None
    if args.track_traffic:
        from .comm import NoCompression, Transport

        transport = Transport(NoCompression(), seed=config.seed)
    try:
        with contextlib.ExitStack() as stack:
            if exporters or args.introspect:
                stack.enter_context(telemetry_session(exporters))
            if args.record_dir:
                stack.enter_context(recording_session(args.record_dir))
            result = run_algorithm(
                config,
                args.algorithm,
                fault_plan=fault_plan,
                degradation=degradation,
                transport=transport,
                guard=guard,
                checkpoint_every=args.checkpoint_every,
                checkpoint_dir=args.checkpoint_dir,
                resume_from=args.checkpoint_dir if args.resume else None,
            )
    except FileNotFoundError as error:
        print(f"cannot resume: no checkpoint at {args.checkpoint_dir} ({error})", file=sys.stderr)
        return 2
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    target = target_for(config)
    fault_summary = result.history.fault_summary()
    if args.json:
        print(
            json.dumps(
                {
                    "algorithm": args.algorithm,
                    "dataset": config.dataset,
                    "final_accuracy": result.final_accuracy,
                    "output_accuracy": result.output_accuracy,
                    "diverged": result.diverged,
                    "rounds_to_target": result.history.rounds_to_accuracy(target),
                    "accuracies": result.history.accuracies.tolist(),
                    "cumulative_sim_time": result.history.cumulative_times.tolist(),
                    "expelled_clients": result.history.expelled_clients,
                    "faults": fault_summary,
                    "guard": result.history.recovery_summary(),
                    "quarantine_reasons": result.history.quarantine_reasons(),
                    "elapsed_seconds": result.elapsed_seconds,
                    "uplink_bytes": result.history.total_uplink_bytes,
                    "downlink_bytes": result.history.total_downlink_bytes,
                }
            )
        )
    else:
        print(
            render_table(
                ["algorithm", "final acc", "output acc", f"rounds to {target:.0%}", "sim time"],
                [_result_row(args.algorithm, result, target, config.rounds)],
                title=f"{config.dataset} — {config.num_clients} clients, T={config.rounds}, K={config.local_steps}",
            )
        )
        if any(fault_summary.values()):
            print(
                "faults: "
                + ", ".join(f"{key}={value}" for key, value in fault_summary.items())
            )
        guard_summary = result.history.recovery_summary()
        if result.history.recoveries or guard_summary["anomalies"]:
            print(
                "guard: "
                + ", ".join(f"{key}={value}" for key, value in guard_summary.items())
            )
    return 0


def cmd_federate(args: argparse.Namespace) -> int:
    """``repro federate`` — semi-async training over a client registry.

    Selects clients from a virtual population of ``--population``
    descriptors, materializing only the ``--cohort`` in flight, and
    aggregates every ``--buffer`` arrivals with staleness discounting
    (see docs/SCALING.md).
    """
    from pathlib import Path

    from .federation import SMOKE_CONFIG, FederateConfig, run_federation

    base = SMOKE_CONFIG if args.smoke else FederateConfig()
    mapping = {
        "dataset": "dataset",
        "algorithm": "algorithm",
        "population": "population",
        "cohort": "cohort_size",
        "buffer": "buffer_size",
        "rounds": "rounds",
        "scheme": "scheme",
        "local_steps": "local_steps",
        "lr": "local_lr",
        "global_lr": "global_lr",
        "batch_size": "batch_size",
        "samples_per_client": "samples_per_client",
        "phi": "dirichlet_phi",
        "test_size": "test_size",
        "staleness_power": "staleness_power",
        "round_deadline": "round_deadline",
        "over_selection": "over_selection",
        "min_quorum": "min_quorum",
        "max_staleness": "max_staleness",
        "eval_every": "eval_every",
        "seed": "seed",
        "loss_rate": "loss_rate",
        "duplicate_rate": "duplicate_rate",
        "uplink_latency": "uplink_latency",
        "downlink_latency": "downlink_latency",
        "retry_limit": "retry_limit",
        "retry_backoff": "retry_backoff",
        "retry_jitter": "retry_jitter",
        "lease_timeout": "lease_timeout",
        "trace": "trace",
        "trace_bursts": "trace_bursts",
    }
    overrides = {
        field: getattr(args, attr)
        for attr, field in mapping.items()
        if getattr(args, attr, None) is not None
    }
    checkpoint_error = _checkpoint_flags_error(args)
    if checkpoint_error:
        print(checkpoint_error, file=sys.stderr)
        return 2
    try:
        config = base.with_overrides(**overrides)
        exporters = [make_exporter(spec) for spec in (args.telemetry or [])]
    except (TypeError, ValueError) as error:
        print(f"invalid federate arguments: {error}", file=sys.stderr)
        return 2
    record_path = None
    if args.record_dir:
        record_path = (
            Path(args.record_dir)
            / f"{config.dataset}-{config.algorithm}-p{config.population}-s{config.seed}"
            / "runrecord.json"
        )
    try:
        with contextlib.ExitStack() as stack:
            if exporters:
                stack.enter_context(telemetry_session(exporters))
            coordinator, result = run_federation(
                config,
                record_path=record_path,
                checkpoint_every=args.checkpoint_every,
                checkpoint_dir=args.checkpoint_dir,
                resume_from=args.checkpoint_dir if args.resume else None,
            )
    except FileNotFoundError as error:
        print(f"cannot resume: no checkpoint at {args.checkpoint_dir} ({error})", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    staleness = [
        tau for flush in coordinator.flush_log for tau in flush.staleness.values()
    ]
    summary = {
        "algorithm": config.algorithm,
        "dataset": config.dataset,
        "population": config.population,
        "cohort_size": config.cohort_size,
        "buffer_size": coordinator.buffer_size,
        "rounds": len(result.history.records),
        "final_accuracy": result.final_accuracy,
        "output_accuracy": result.output_accuracy,
        "diverged": result.diverged,
        "virtual_time": coordinator.virtual_time,
        "mean_staleness": (sum(staleness) / len(staleness)) if staleness else 0.0,
        "max_staleness": max(staleness, default=0),
        "stragglers": sum(len(r.stragglers) for r in result.history.records),
        "quarantined": sum(len(r.quarantined) for r in result.history.records),
        "expelled_clients": result.history.expelled_clients,
        "elapsed_seconds": result.elapsed_seconds,
    }
    deliveries = result.history.delivery_summary()
    if deliveries:
        summary["deliveries"] = deliveries
    if args.json:
        print(json.dumps(summary))
    else:
        print(
            render_table(
                ["population", "cohort", "buffer", "rounds", "final acc", "staleness", "virtual time"],
                [[
                    f"{config.population:,}",
                    str(config.cohort_size),
                    str(coordinator.buffer_size),
                    str(summary["rounds"]),
                    "x" if result.diverged else f"{result.final_accuracy:.2%}",
                    f"{summary['mean_staleness']:.2f}",
                    f"{coordinator.virtual_time:.2f}s",
                ]],
                title=f"{config.dataset} — {config.algorithm} semi-async ({config.scheme} sampling)",
            )
        )
    if record_path is not None:
        print(f"wrote {record_path}", file=sys.stderr)
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """``repro chaos`` — graded network-chaos grid over the coordinator.

    Runs every ``--algorithms`` x ``--loss-rates`` cell under one chaos
    profile (duplication, latency, leases, optionally an open-loop
    ``--trace``), checks the inert-plan and same-seed determinism
    invariants, and reports the largest loss rate each algorithm
    survives (see docs/ROBUSTNESS.md).
    """
    from pathlib import Path

    from .network.harness import SMOKE_SPEC, ChaosSpec, run_chaos

    base = SMOKE_SPEC if args.smoke else ChaosSpec()
    overrides = {}
    if args.algorithms is not None:
        overrides["algorithms"] = tuple(args.algorithms)
    if args.loss_rates is not None:
        overrides["loss_rates"] = tuple(args.loss_rates)
    if args.trace is not None:
        overrides["trace"] = args.trace
    if args.rounds is not None:
        overrides["rounds"] = args.rounds
    if args.seed is not None:
        overrides["seed"] = args.seed
    try:
        spec = dataclasses.replace(base, **overrides)
        payload = run_chaos(
            spec, log=None if args.json else (lambda m: print(m, file=sys.stderr))
        )
    except (TypeError, ValueError) as error:
        print(f"invalid chaos arguments: {error}", file=sys.stderr)
        return 2
    chaos = payload["chaos"]
    if args.out:
        target = Path(args.out)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {target}", file=sys.stderr)
    if args.json:
        print(json.dumps(payload))
    else:
        rows = [
            [
                cell["algorithm"],
                f"{cell['loss_rate']:g}",
                "x" if not cell["survives"] else f"{cell['output_accuracy']:.2%}",
                str(cell["dropped_uploads"]),
                str(cell["retried_uploads"]),
                str(cell["duplicated_uploads"]),
                str(cell["skipped_rounds"]),
            ]
            for cell in chaos["cells"]
        ]
        print(
            render_table(
                ["algorithm", "loss", "accuracy", "dropped", "retried", "deduped", "skipped"],
                rows,
                title="network chaos grid",
            )
        )
        invariants = chaos["invariants"]
        print(
            "invariants: inert-plan bit-identity "
            + ("ok" if invariants["none_plan_bit_identical"] else "FAILED")
            + ", same-seed determinism "
            + ("ok" if invariants["same_seed_deterministic"] else "FAILED")
        )
        for algorithm, threshold in sorted(chaos["loss_thresholds"].items()):
            shown = "none" if threshold is None else f"{threshold:g}"
            print(f"loss threshold [{algorithm}]: {shown}")
    if not all(chaos["invariants"].values()):
        return 1
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    """``repro compare`` — run several algorithms under identical conditions."""
    try:
        config = _config_from_args(args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        results = run_suite(config, args.algorithms)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    target = target_for(config)
    rows = [
        _result_row(name, result, target, config.rounds)
        for name, result in results.items()
    ]
    print(
        render_table(
            ["algorithm", "final acc", "output acc", f"rounds to {target:.0%}", "sim time"],
            rows,
            title=f"{config.dataset} — {config.num_clients} clients, T={config.rounds}, K={config.local_steps}",
        )
    )
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    """``repro experiment`` — regenerate one paper table/figure."""
    from .experiments import (
        fault_tolerance,
        fig1_geometry,
        fig2_reevaluation,
        fig4_time_to_accuracy,
        fig5_per_round_time,
        fig6_hybrid_gain,
        fig7_gamma_sensitivity,
        table1_compute_time,
        table2_alpha_groups,
        table3_comparison,
        table5_round_to_accuracy,
        table6_ablation,
        table7_scalability,
        table8_freeloader_sensitivity,
        table9_attack_matrix,
        table10_federation,
        theory_overcorrection,
    )

    modules = {
        "fig1": fig1_geometry,
        "table1": table1_compute_time,
        "fig2": fig2_reevaluation,
        "table2": table2_alpha_groups,
        "table3": table3_comparison,
        "table5": table5_round_to_accuracy,
        "fig4": fig4_time_to_accuracy,
        "fig5": fig5_per_round_time,
        "fig6": fig6_hybrid_gain,
        "table6": table6_ablation,
        "table7": table7_scalability,
        "table8": table8_freeloader_sensitivity,
        "table9": table9_attack_matrix,
        "table10": table10_federation,
        "fig7": fig7_gamma_sensitivity,
        "theory": theory_overcorrection,
        "faults": fault_tolerance,
        "chaos": fault_tolerance,
    }
    module = modules.get(args.name)
    if module is None:
        print(f"unknown experiment {args.name!r}; known: {sorted(modules)}", file=sys.stderr)
        return 2
    with contextlib.ExitStack() as stack:
        if getattr(args, "introspect", False):
            stack.enter_context(telemetry_session())
        if getattr(args, "record_dir", None):
            stack.enter_context(recording_session(args.record_dir))
        try:
            return _dispatch_experiment(module, args)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2


def _dispatch_experiment(module, args: argparse.Namespace) -> int:
    """Invoke one experiment module with the arguments it expects."""
    if args.name in ("table3", "fig1"):
        result = module.run()
    elif args.name in ("table5",):
        result = module.run(datasets=tuple(args.datasets) if args.datasets else ("adult", "fmnist"))
    elif args.name in ("table6", "table7", "table10", "fig7"):
        result = module.run()
    elif args.name == "faults":
        config = default_config_for(args.datasets[0] if args.datasets else "fmnist")
        result = module.run(config)
    elif args.name == "chaos":
        config = default_config_for(args.datasets[0]) if args.datasets else None
        result = module.run_chaos(config)
    elif args.name == "table9":
        # Table IX keeps its own small base; --datasets swaps only the data.
        config = None
        if args.datasets:
            config = module.default_spec().base.with_overrides(dataset=args.datasets[0])
        result = module.run(config)
    elif args.name in ("table2", "table8"):
        config = default_config_for(args.datasets[0] if args.datasets else "fmnist").with_overrides(
            num_freeloaders=4
        )
        result = module.run(config)
    else:
        config = default_config_for(args.datasets[0] if args.datasets else "fmnist")
        result = module.run(config)
    print(result.render())
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """``repro report`` — render run records (and scenario matrices) to HTML/ASCII."""
    from pathlib import Path

    from .analysis.runrecords import load_records
    from .report import (
        is_serving_payload,
        render_ascii,
        render_html,
        render_matrix_ascii,
        render_serving_ascii,
    )
    from .scenarios import MATRIX_KIND, MatrixError, validate_matrix

    record_paths: List[str] = []
    matrices = []
    serving_payloads = []
    for path in args.records:
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as error:
            print(f"cannot load {path}: {error}", file=sys.stderr)
            return 2
        if isinstance(raw, dict) and raw.get("kind") == MATRIX_KIND:
            try:
                matrices.append(validate_matrix(raw))
            except MatrixError as error:
                print(f"cannot load scenario matrix {path}: {error}", file=sys.stderr)
                return 2
        elif is_serving_payload(raw):
            serving_payloads.append(raw)
        else:
            record_paths.append(path)
    try:
        records = load_records(record_paths)
    except (OSError, RunRecordError, json.JSONDecodeError) as error:
        print(f"cannot load run records: {error}", file=sys.stderr)
        return 2
    if not records and not matrices and not serving_payloads:
        print(
            "no run records, scenario matrices, or serving payloads to render",
            file=sys.stderr,
        )
        return 2
    if args.ascii:
        chunks = [render_ascii(records, title=args.title)] if records else []
        chunks.extend(render_matrix_ascii(matrix) for matrix in matrices)
        chunks.extend(render_serving_ascii(payload) for payload in serving_payloads)
        print("\n\n".join(chunks))
        return 0
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(
        render_html(
            records, title=args.title, matrices=matrices, serving=serving_payloads
        ),
        encoding="utf-8",
    )
    print(f"wrote {out}")
    return 0


#: ``repro loadtest --smoke`` sweep: tiny but still four points for the bench gate.
SMOKE_LOADTEST_RATES = (0.5, 2.0, 8.0, 32.0)
SMOKE_LOADTEST_BURSTS = 10


def cmd_loadtest(args: argparse.Namespace) -> int:
    """``repro loadtest`` — open-loop capacity sweep of the async coordinator."""
    from pathlib import Path

    from .report import render_serving_ascii
    from .serving import LoadTestConfig, run_loadtest

    try:
        overrides = {"trace": args.trace}
        if args.smoke:
            overrides["rate_factors"] = SMOKE_LOADTEST_RATES
            overrides["bursts"] = SMOKE_LOADTEST_BURSTS
        if args.rates is not None:
            overrides["rate_factors"] = tuple(args.rates)
        if args.bursts is not None:
            overrides["bursts"] = args.bursts
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.knee_fraction is not None:
            overrides["knee_fraction"] = args.knee_fraction
        config = LoadTestConfig(**overrides)
        payload = run_loadtest(config)
    except ValueError as error:
        print(f"invalid load test: {error}", file=sys.stderr)
        return 2
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {out}")
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(render_serving_ascii(payload))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """``repro trace export`` — convert a JSONL telemetry trace to Chrome JSON."""
    from .serving import export_chrome_trace

    try:
        count = export_chrome_trace(args.source, args.out)
    except (OSError, ValueError, json.JSONDecodeError) as error:
        print(f"cannot export trace: {error}", file=sys.stderr)
        return 2
    print(f"wrote {args.out} ({count} trace events); open in ui.perfetto.dev")
    return 0


def cmd_scenarios(args: argparse.Namespace) -> int:
    """``repro scenarios`` — run the attack × defence × algorithm grid."""
    import dataclasses
    from pathlib import Path

    from .report import render_matrix_ascii, render_html
    from .scenarios import MatrixSpec, run_matrix, smoke_spec, write_matrix

    try:
        if args.smoke:
            spec = smoke_spec(seed=args.seeds[0] if args.seeds else 0)
            overrides = {}
            if args.attacks:
                overrides["attacks"] = tuple(args.attacks)
            if args.defences:
                overrides["defences"] = tuple(args.defences)
            if args.algorithms:
                overrides["algorithms"] = tuple(args.algorithms)
            if args.seeds:
                overrides["seeds"] = tuple(args.seeds)
            if overrides:
                spec = dataclasses.replace(spec, **overrides)
        else:
            spec = MatrixSpec(
                attacks=tuple(args.attacks or MatrixSpec.attacks),
                defences=tuple(args.defences or MatrixSpec.defences),
                algorithms=tuple(args.algorithms or MatrixSpec.algorithms),
                phis=tuple(args.phis) if args.phis else MatrixSpec.phis,
                seeds=tuple(args.seeds) if args.seeds else MatrixSpec.seeds,
                num_attackers=args.attackers,
                base=_config_from_args(args),
            )
    except ValueError as error:
        print(f"invalid scenario grid: {error}", file=sys.stderr)
        return 2
    with contextlib.ExitStack() as stack:
        if args.record_dir:
            stack.enter_context(recording_session(args.record_dir))
        matrix = run_matrix(spec)
    out = write_matrix(matrix, args.out)
    print(render_matrix_ascii(matrix))
    print(f"wrote {out}")
    if args.report:
        report = Path(args.report)
        report.parent.mkdir(parents=True, exist_ok=True)
        report.write_text(
            render_html([], title=args.title, matrices=[matrix]), encoding="utf-8"
        )
        print(f"wrote {report}")
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    """``repro diff`` — compare two run records for accuracy and divergence.

    Exits 0 when nothing regressed, 1 on a regression, 2 on usage errors.
    """
    from .report import diff_records, has_regressions, render_deltas

    if not (args.baseline and args.candidate):
        print("diff needs two run records", file=sys.stderr)
        return 2
    from .analysis.runrecords import load_records

    try:
        baseline, candidate = load_records([args.baseline, args.candidate])
    except (OSError, RunRecordError, json.JSONDecodeError) as error:
        print(f"cannot load run records: {error}", file=sys.stderr)
        return 2
    deltas = diff_records(baseline, candidate, accuracy_tolerance=args.acc_tolerance)
    print(render_deltas(deltas, title=f"{args.baseline} vs {args.candidate}"))
    if has_regressions(deltas):
        for delta in deltas:
            if delta.regression:
                print(f"REGRESSION: {delta.field}: {delta.note}", file=sys.stderr)
        return 1
    print("no regressions detected")
    return 0


def cmd_list(args: argparse.Namespace) -> int:
    """``repro list`` — show datasets, algorithms, attacks, defences and experiments."""
    from .attacks import attack_names
    from .scenarios import defence_names

    from .fl.sampling import participation_names
    from .network.traffic import trace_names

    print("datasets:  ", " ".join(sorted(dataset_names())))
    print("algorithms:", " ".join(sorted(algorithm_names())))
    print("attacks:   ", " ".join(attack_names()))
    print("defences:  ", " ".join(defence_names()))
    print("schemes:   ", " ".join(participation_names()))
    print("traces:    ", " ".join(trace_names()))
    print(
        "experiments:",
        "fig1 table1 fig2 table2 table3 table5 fig4 fig5 fig6 table6 table7 table8 table9 table10 fig7 theory faults chaos",
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the ``repro`` CLI."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one algorithm")
    run_p.add_argument("--algorithm", default="taco", choices=sorted(algorithm_names()))
    run_p.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    _add_config_arguments(run_p)
    _add_fault_arguments(run_p)
    _add_guard_arguments(run_p)
    _add_telemetry_arguments(run_p)
    _add_checkpoint_arguments(run_p)
    run_p.set_defaults(func=cmd_run)

    fed_p = sub.add_parser(
        "federate", help="semi-async training over a population-scale client registry"
    )
    from .fl.sampling import participation_names as _participation_names
    from .network.traffic import trace_names as _trace_names

    fed_p.add_argument(
        "--smoke", action="store_true",
        help="CI-sized end-to-end run (1k population, cohort 8, buffer 4, 3 rounds)",
    )
    fed_p.add_argument("--dataset", default=None, choices=sorted(dataset_names()))
    fed_p.add_argument("--algorithm", default=None, choices=sorted(algorithm_names()))
    fed_p.add_argument("--population", type=int, default=None, help="registered clients")
    fed_p.add_argument("--cohort", type=int, default=None, help="clients in flight")
    fed_p.add_argument(
        "--buffer", type=int, default=None,
        help="aggregate every B arrivals (default: cohort, the sync-equivalent setting)",
    )
    fed_p.add_argument("--rounds", type=int, default=None, help="buffered aggregations")
    fed_p.add_argument(
        "--scheme", default=None, choices=list(_participation_names()),
        help="participation scheme over the registry (default: reservoir)",
    )
    fed_p.add_argument("--local-steps", type=int, default=None, help="local updates K")
    fed_p.add_argument("--lr", type=float, default=None, help="local learning rate eta_l")
    fed_p.add_argument("--global-lr", type=float, default=None, help="server learning rate eta_g")
    fed_p.add_argument("--batch-size", type=int, default=None, help="mini-batch size s")
    fed_p.add_argument(
        "--samples-per-client", type=int, default=None,
        help="mean local shard size (actual sizes vary per client)",
    )
    fed_p.add_argument("--phi", type=float, default=None, help="Dirichlet label-skew concentration")
    fed_p.add_argument("--test-size", type=int, default=None)
    fed_p.add_argument(
        "--staleness-power", type=float, default=None, metavar="A",
        help="staleness discount exponent: weight = (1+tau)^-A (default: 0.5)",
    )
    fed_p.add_argument(
        "--round-deadline", type=float, default=None,
        help="abandon dispatched clients slower than this many sim-seconds",
    )
    fed_p.add_argument("--over-selection", type=_rate, default=None, help="extra dispatch fraction")
    fed_p.add_argument("--min-quorum", type=int, default=None, help="min surviving updates per flush")
    fed_p.add_argument(
        "--max-staleness", type=int, default=None,
        help="drop arrivals staler than this many server versions",
    )
    fed_p.add_argument("--eval-every", type=int, default=None, help="evaluate every N flushes")
    fed_p.add_argument("--seed", type=int, default=None)
    net_group = fed_p.add_argument_group(
        "unreliable network (all default to a perfect wire; see docs/ROBUSTNESS.md)"
    )
    net_group.add_argument(
        "--loss-rate", type=_rate, default=None, help="per-attempt upload loss probability"
    )
    net_group.add_argument(
        "--duplicate-rate", type=_rate, default=None,
        help="probability a delivered upload arrives twice (at-least-once semantics)",
    )
    net_group.add_argument(
        "--uplink-latency", type=float, default=None, metavar="SECONDS",
        help="mean exponential client->server transit delay",
    )
    net_group.add_argument(
        "--downlink-latency", type=float, default=None, metavar="SECONDS",
        help="mean exponential server->client dispatch delay",
    )
    net_group.add_argument(
        "--retry-limit", type=int, default=None, help="client retries before giving up"
    )
    net_group.add_argument(
        "--retry-backoff", type=float, default=None, metavar="SECONDS",
        help="base of the shared exponential backoff (base * 2^k)",
    )
    net_group.add_argument(
        "--retry-jitter", type=_rate, default=None,
        help="seeded jitter fraction on each backoff interval",
    )
    net_group.add_argument(
        "--lease-timeout", type=float, default=None, metavar="SECONDS",
        help="revoke and re-dispatch uploads undelivered after this long",
    )
    net_group.add_argument(
        "--trace", default=None, choices=list(_trace_names()),
        help="replay an open-loop arrival trace instead of closed-loop top-up",
    )
    net_group.add_argument(
        "--trace-bursts", type=int, default=None, help="bursts in the generated trace"
    )
    fed_p.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    fed_p.add_argument(
        "--telemetry", action="append", default=None, metavar="SPEC",
        help="exporter spec (repeatable): jsonl:PATH, prom:PATH or console; "
        "traces every delivery (export with 'repro trace export')",
    )
    fed_p.add_argument(
        "--record-dir", default=None, metavar="DIR",
        help="write runrecord.json under DIR/<dataset>-<algo>-p<population>-s<seed>/",
    )
    _add_checkpoint_arguments(fed_p)
    fed_p.set_defaults(func=cmd_federate)

    chaos_p = sub.add_parser(
        "chaos", help="graded network-chaos grid over the async coordinator"
    )
    chaos_p.add_argument(
        "--smoke", action="store_true",
        help="CI-sized campaign (2 algorithms x 3 loss rates, 2 rounds each)",
    )
    chaos_p.add_argument(
        "--algorithms", nargs="+", default=None, choices=sorted(algorithm_names()),
        help="algorithms on the grid (default: fedavg taco scaffold)",
    )
    chaos_p.add_argument(
        "--loss-rates", nargs="+", type=_rate, default=None, metavar="RATE",
        help="loss rates on the grid (default: 0 0.1 0.3 0.5)",
    )
    chaos_p.add_argument(
        "--trace", default=None, choices=list(_trace_names()),
        help="run every cell under an open-loop arrival trace",
    )
    chaos_p.add_argument("--rounds", type=int, default=None, help="rounds per cell")
    chaos_p.add_argument("--seed", type=int, default=None)
    chaos_p.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the full campaign payload as JSON to PATH",
    )
    chaos_p.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    chaos_p.set_defaults(func=cmd_chaos)

    load_p = sub.add_parser(
        "loadtest",
        help="open-loop load test: sweep arrival rates, find the saturation knee",
    )
    load_p.add_argument(
        "--trace", default="poisson", choices=list(_trace_names()),
        help="arrival trace replayed at each swept rate (default: poisson)",
    )
    load_p.add_argument(
        "--rates", nargs="+", type=float, default=None, metavar="FACTOR",
        help="ascending offered-rate multipliers (default: 0.25 1 4 16)",
    )
    load_p.add_argument("--bursts", type=int, default=None, help="bursts per trace")
    load_p.add_argument("--seed", type=int, default=None)
    load_p.add_argument(
        "--knee-fraction", type=_rate, default=None, metavar="F",
        help="saturated when throughput < F x offered rate (default: 0.8)",
    )
    load_p.add_argument(
        "--smoke", action="store_true",
        help="CI-sized sweep (10 bursts, rates 0.5 2 8 32)",
    )
    load_p.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the capacity payload as JSON to PATH",
    )
    load_p.add_argument("--json", action="store_true", help="emit JSON instead of charts")
    load_p.set_defaults(func=cmd_loadtest)

    trace_p = sub.add_parser("trace", help="work with recorded telemetry traces")
    trace_sub = trace_p.add_subparsers(dest="trace_command", required=True)
    export_p = trace_sub.add_parser(
        "export",
        help="convert a JSONL telemetry trace to Chrome trace-event JSON (Perfetto)",
    )
    export_p.add_argument(
        "source", help="JSONL telemetry file recorded with --telemetry jsonl:PATH"
    )
    export_p.add_argument(
        "--out", default="out/trace_chrome.json", metavar="PATH",
        help="Chrome trace-event JSON destination (default: out/trace_chrome.json)",
    )
    export_p.set_defaults(func=cmd_trace)

    cmp_p = sub.add_parser("compare", help="run several algorithms under identical conditions")
    cmp_p.add_argument(
        "--algorithms", nargs="+", default=["fedavg", "taco"],
        choices=sorted(algorithm_names()),
    )
    _add_config_arguments(cmp_p)
    cmp_p.set_defaults(func=cmd_compare)

    exp_p = sub.add_parser("experiment", help="regenerate a paper table/figure")
    exp_p.add_argument("name", help="experiment id, e.g. table5 or fig2")
    exp_p.add_argument("--datasets", nargs="*", default=None)
    exp_p.add_argument(
        "--introspect", action="store_true",
        help="collect per-round algorithm diagnostics into the run records",
    )
    exp_p.add_argument(
        "--record-dir", default=None, metavar="DIR",
        help="write a runrecord.json per simulated run under DIR",
    )
    exp_p.set_defaults(func=cmd_experiment)

    scen_p = sub.add_parser(
        "scenarios", help="run the attack × defence × algorithm grid"
    )
    from .attacks import attack_names as _attack_names
    from .scenarios.defences import defence_names as _defence_names

    scen_p.add_argument(
        "--smoke", action="store_true",
        help="run the tiny deterministic CI grid (4 attacks × 3 defences on "
        "small adult, one seed); other axis flags override its axes",
    )
    scen_p.add_argument(
        "--attacks", nargs="+", default=None, choices=sorted(_attack_names()),
        metavar="ATTACK", help=f"attack axis; registered: {', '.join(_attack_names())}",
    )
    scen_p.add_argument(
        "--defences", nargs="+", default=None, choices=list(_defence_names()),
        metavar="DEFENCE", help=f"defence axis; registered: {', '.join(_defence_names())}",
    )
    scen_p.add_argument(
        "--algorithms", nargs="+", default=None, choices=sorted(algorithm_names()),
        metavar="ALGO", help="algorithm axis",
    )
    scen_p.add_argument(
        "--phis", nargs="+", type=float, default=None, metavar="PHI",
        help="Dirichlet non-IID levels (default: 0.5)",
    )
    scen_p.add_argument(
        "--seeds", nargs="+", type=int, default=None, metavar="SEED",
        help="seeds averaged per cell (default: 0 1)",
    )
    scen_p.add_argument(
        "--attackers", type=int, default=2,
        help="clients replaced by attack clients in poisoned cells (default: 2)",
    )
    scen_p.add_argument("--out", default="out/matrix.json", help="matrix JSON output path")
    scen_p.add_argument(
        "--report", default=None, metavar="HTML",
        help="also render the heat-grid HTML report to this path",
    )
    scen_p.add_argument("--title", default="repro scenario matrix")
    scen_p.add_argument(
        "--record-dir", default=None, metavar="DIR",
        help="write a runrecord.json per cell run under DIR",
    )
    _add_config_arguments(scen_p)
    scen_p.set_defaults(func=cmd_scenarios)

    report_p = sub.add_parser("report", help="render run records to an HTML/ASCII report")
    report_p.add_argument("records", nargs="+", help="runrecord.json paths")
    report_p.add_argument("--out", default="out/report.html", help="HTML output path")
    report_p.add_argument(
        "--ascii", action="store_true",
        help="print an ASCII report to stdout instead of writing HTML",
    )
    report_p.add_argument("--title", default="repro run report")
    report_p.set_defaults(func=cmd_report)

    diff_p = sub.add_parser(
        "diff", help="compare two run records: accuracy drop and divergence"
    )
    diff_p.add_argument("baseline", nargs="?", default=None, help="baseline runrecord.json")
    diff_p.add_argument("candidate", nargs="?", default=None, help="candidate runrecord.json")
    diff_p.add_argument(
        "--acc-tolerance", type=float, default=0.02, metavar="FRAC",
        help="allowed final-accuracy drop before failing (default: 0.02)",
    )
    diff_p.set_defaults(func=cmd_diff)

    list_p = sub.add_parser("list", help="list datasets, algorithms and experiments")
    list_p.set_defaults(func=cmd_list)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    dtype = getattr(args, "dtype", "float64")
    if dtype == "float64":
        return args.func(args)
    with default_dtype(dtype):
        return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
