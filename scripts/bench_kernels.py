#!/usr/bin/env python
"""Perf-regression harness: production kernels vs the pre-overhaul references.

Measures median wall time of the hot-path kernels against the naive
implementations preserved in ``tests/reference_kernels.py`` (the pre-PR
formulations: per-call index construction, ``np.add.at`` scatters, Python
window loops, unfused LSTM graphs, per-parameter vector concatenation) —
same machine, same process, same inputs.  Results go to ``BENCH_kernels.json``.

Usage::

    PYTHONPATH=src python scripts/bench_kernels.py            # full run, writes JSON
    PYTHONPATH=src python scripts/bench_kernels.py --smoke    # small shapes, asserts
                                                              # speedup floors, no JSON

``--smoke`` is wired into scripts/ci.sh: it fails the build if any asserted
floor is missed — CNN per-round 2x, max_pool2d 5x, conv2d 1.5x.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))  # for tests.reference_kernels

import numpy as np  # noqa: E402

from repro.autograd import Tensor, cross_entropy, max_pool2d  # noqa: E402
from repro.autograd import ops as ops_mod  # noqa: E402
from repro.nn import LSTMCell, set_arena_enabled  # noqa: E402
from repro.nn.models import PaperCNN  # noqa: E402
import repro.nn.conv as conv_layer_mod  # noqa: E402
import repro.nn.models.cnn as cnn_model_mod  # noqa: E402

from tests.reference_kernels import (  # noqa: E402
    naive_avg_pool2d,
    naive_conv2d,
    naive_gradient_vector,
    naive_load_vector,
    naive_lstm_cell_forward,
    naive_max_pool2d,
)

#: Speedup floors asserted by ``--smoke`` (and CI).
FLOOR_CNN_ROUND = 2.0
FLOOR_MAX_POOL = 5.0
FLOOR_CONV = 1.5


def _median_ms(fn, repeats: int) -> float:
    times = []
    fn()  # warm caches/JIT-free but cache-sensitive paths
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def _op_fwd_bwd(op, *args, **kwargs):
    """Time the op's own forward + backward closure, nothing else.

    Calling ``result._backward`` directly keeps the surrounding loss graph
    (identical on both sides) out of the measurement, so the ratio reflects
    the kernel alone.
    """
    grad_holder = {}

    def run():
        out = op(*args, **kwargs)
        g = grad_holder.get("g")
        if g is None:
            g = grad_holder["g"] = np.ones(out.shape)
        out._backward(g)

    return run


def bench_max_pool(repeats: int, smoke: bool) -> dict:
    shape = (8, 4, 14, 14) if smoke else (32, 8, 28, 28)
    x = Tensor(np.random.default_rng(0).normal(size=shape), requires_grad=True)
    fast = _median_ms(_op_fwd_bwd(max_pool2d, x, 2), repeats)
    naive = _median_ms(_op_fwd_bwd(naive_max_pool2d, x, 2), repeats)
    return {"naive_ms": naive, "fast_ms": fast, "speedup": naive / fast}


def bench_avg_pool(repeats: int, smoke: bool) -> dict:
    shape = (8, 4, 14, 14) if smoke else (32, 8, 28, 28)
    x = Tensor(np.random.default_rng(0).normal(size=shape), requires_grad=True)
    fast = _median_ms(_op_fwd_bwd(ops_mod.avg_pool2d, x, 2), repeats)
    naive = _median_ms(_op_fwd_bwd(naive_avg_pool2d, x, 2), repeats)
    return {"naive_ms": naive, "fast_ms": fast, "speedup": naive / fast}


def bench_conv(repeats: int, smoke: bool) -> dict:
    rng = np.random.default_rng(0)
    xshape = (4, 2, 14, 14) if smoke else (16, 4, 28, 28)
    x = Tensor(rng.normal(size=xshape), requires_grad=True)
    w = Tensor(rng.normal(size=(8, xshape[1], 5, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=8), requires_grad=True)
    fast = _median_ms(_op_fwd_bwd(ops_mod.conv2d, x, w, b, stride=1, padding=2), repeats)
    naive = _median_ms(_op_fwd_bwd(naive_conv2d, x, w, b, stride=1, padding=2), repeats)
    return {"naive_ms": naive, "fast_ms": fast, "speedup": naive / fast}


def bench_lstm(repeats: int, smoke: bool) -> dict:
    batch, input_size, hidden = (8, 16, 32) if smoke else (32, 32, 64)
    rng = np.random.default_rng(0)
    cell = LSTMCell(input_size, hidden, rng=np.random.default_rng(1))
    x = Tensor(rng.normal(size=(batch, input_size)), requires_grad=True)
    h = Tensor(rng.normal(size=(batch, hidden)), requires_grad=True)
    c = Tensor(rng.normal(size=(batch, hidden)), requires_grad=True)

    def fused():
        cell.zero_grad()
        h_next, c_next = cell.forward(x, h, c)
        ((h_next * h_next).sum() + (c_next * c_next).sum()).backward()

    def unfused():
        cell.zero_grad()
        h_next, c_next = naive_lstm_cell_forward(cell, x, h, c)
        ((h_next * h_next).sum() + (c_next * c_next).sum()).backward()

    fast = _median_ms(fused, repeats)
    naive = _median_ms(unfused, repeats)
    return {"naive_ms": naive, "fast_ms": fast, "speedup": naive / fast}


def bench_vector_round_trip(repeats: int, smoke: bool) -> dict:
    """load_vector + gradient_vector: arena vs per-parameter concatenation."""
    model = PaperCNN(width_multiplier=0.5 if smoke else 1.0, rng=np.random.default_rng(2))
    vec = model.parameters_vector()
    grad = np.ones_like(vec)

    def arena_path():
        model.load_vector(vec)
        model.zero_grad()
        model.add_to_gradients(grad)
        model.gradient_vector()

    def naive_path():
        naive_load_vector(model, vec)
        model.zero_grad()
        model.add_to_gradients(grad)
        naive_gradient_vector(model)

    set_arena_enabled(True)
    fast = _median_ms(arena_path, repeats)
    naive = _median_ms(naive_path, repeats)
    return {"naive_ms": naive, "fast_ms": fast, "speedup": naive / fast}


def bench_cnn_round(repeats: int, smoke: bool) -> dict:
    """A client-style local round: K training steps with the full stack.

    The "naive" side swaps in the pre-overhaul kernels at their call sites
    (``Conv2d.forward`` resolves ``conv2d`` through its module global, the
    CNN resolves ``max_pool2d`` likewise) and disables the arena, so both
    sides run the identical training loop.
    """
    rng = np.random.default_rng(3)
    model = PaperCNN(width_multiplier=0.5 if smoke else 1.0, rng=np.random.default_rng(4))
    batch = 8 if smoke else 32
    steps = 2 if smoke else 5
    x = rng.normal(size=(batch, 1, 28, 28))
    y = rng.integers(0, 10, size=batch)
    params = model.parameters_vector()

    def local_round():
        w = params.copy()
        for _ in range(steps):
            model.load_vector(w)
            model.zero_grad()
            loss = cross_entropy(model(Tensor(x)), y)
            loss.backward()
            w -= 0.01 * model.gradient_vector()

    set_arena_enabled(True)
    fast = _median_ms(local_round, repeats)

    set_arena_enabled(False)
    conv_layer_mod.conv2d = naive_conv2d
    cnn_model_mod.max_pool2d = naive_max_pool2d
    try:
        naive = _median_ms(local_round, repeats)
    finally:
        conv_layer_mod.conv2d = ops_mod.conv2d
        cnn_model_mod.max_pool2d = max_pool2d
        set_arena_enabled(True)
    return {"naive_ms": naive, "fast_ms": fast, "speedup": naive / fast}


BENCHMARKS = {
    "max_pool2d": bench_max_pool,
    "avg_pool2d": bench_avg_pool,
    "conv2d": bench_conv,
    "lstm_cell": bench_lstm,
    "vector_round_trip": bench_vector_round_trip,
    "cnn_round": bench_cnn_round,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="small shapes + assert speedup floors")
    parser.add_argument("--repeats", type=int, default=None, help="timing repeats per benchmark")
    parser.add_argument(
        "--output", default=None,
        help="JSON path (default: BENCH_kernels.json at the repo root; smoke runs "
        "write nothing unless this is given explicitly)",
    )
    args = parser.parse_args(argv)
    repeats = args.repeats or (5 if args.smoke else 15)

    results = {}
    for name, bench in BENCHMARKS.items():
        results[name] = {k: round(v, 4) for k, v in bench(repeats, args.smoke).items()}
        print(
            f"{name:20s} naive {results[name]['naive_ms']:9.3f} ms   "
            f"fast {results[name]['fast_ms']:9.3f} ms   "
            f"speedup {results[name]['speedup']:6.2f}x"
        )

    payload = {
        "meta": {
            "numpy": np.__version__,
            "python": sys.version.split()[0],
            "smoke": args.smoke,
            "repeats": repeats,
            "note": "medians over repeats; naive = pre-overhaul kernels from tests/reference_kernels.py, measured in the same process",
        },
        "benchmarks": results,
    }
    output = args.output
    if output is None and not args.smoke:
        output = str(REPO_ROOT / "BENCH_kernels.json")
    if output:
        Path(output).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {output}")

    if args.smoke:
        failures = []
        if results["cnn_round"]["speedup"] < FLOOR_CNN_ROUND:
            failures.append(
                f"cnn_round speedup {results['cnn_round']['speedup']:.2f}x < {FLOOR_CNN_ROUND}x"
            )
        if results["max_pool2d"]["speedup"] < FLOOR_MAX_POOL:
            failures.append(
                f"max_pool2d speedup {results['max_pool2d']['speedup']:.2f}x < {FLOOR_MAX_POOL}x"
            )
        if results["conv2d"]["speedup"] < FLOOR_CONV:
            failures.append(
                f"conv2d speedup {results['conv2d']['speedup']:.2f}x < {FLOOR_CONV}x"
            )
        if failures:
            print("PERF REGRESSION: " + "; ".join(failures), file=sys.stderr)
            return 1
        print("smoke thresholds met")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
