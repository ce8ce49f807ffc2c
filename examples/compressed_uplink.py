"""Communication-efficient TACO: compressed client uploads.

Wraps the federated simulation with an uplink transport that compresses
every Delta_i^t (top-k sparsification or stochastic quantisation), then
compares accuracy and traffic across compressors.  The bytes are read from
the run's history, where every round records what each direction cost;
the transmission time is those uplink bytes over an assumed bandwidth.
This models the network-dominated regime the paper discusses, where
bytes-per-round — not client compute — governs time-to-accuracy.

Usage::

    python examples/compressed_uplink.py
"""

import numpy as np

from repro.algorithms import make_strategy
from repro.analysis import render_table
from repro.comm import NoCompression, QuantizationCompressor, TopKCompressor, Transport
from repro.experiments import ExperimentConfig, build_environment, make_clients
from repro.fl import FederatedSimulation

#: Assumed uplink bandwidth for the transmission-time column.
BANDWIDTH_BYTES_PER_SECOND = 1_000_000

COMPRESSORS = (
    ("dense", NoCompression()),
    ("int8 quantised", QuantizationCompressor(bits=8)),
    ("top-10%", TopKCompressor(fraction=0.1)),
)


def main() -> None:
    config = ExperimentConfig(
        dataset="fmnist",
        num_clients=8,
        rounds=8,
        local_steps=10,
        train_size=400,
        test_size=200,
        seed=1,
    )
    env = build_environment(config)

    rows = []
    for label, compressor in COMPRESSORS:
        model = env.bundle.spec.make_model(
            rng=np.random.default_rng(config.seed),
            width_multiplier=config.width_multiplier,
        )
        simulation = FederatedSimulation(
            model=model,
            clients=make_clients(env),
            strategy=make_strategy(
                "taco",
                local_lr=config.local_lr,
                local_steps=config.local_steps,
                detect_freeloaders=False,
            ),
            test_set=env.bundle.test,
            transport=Transport(compressor),
            seed=config.seed,
        )
        history = simulation.run(config.rounds).history
        total_bytes = history.total_uplink_bytes + history.total_downlink_bytes
        uplink_seconds = history.total_uplink_bytes / BANDWIDTH_BYTES_PER_SECOND
        rows.append(
            [
                label,
                f"{history.best_accuracy:.1%}",
                f"{total_bytes / 1e6:.2f} MB",
                f"{uplink_seconds:.2f}s @1MB/s",
            ]
        )

    print(
        render_table(
            ["uplink", "best acc", "total traffic", "transmission time"],
            rows,
            title="TACO under uplink compression",
        )
    )
    print(
        "\nTop-k keeps 10% of coordinates: ~10x less traffic for a modest\n"
        "accuracy cost — in the network-dominated regime this directly\n"
        "multiplies into time-to-accuracy."
    )


if __name__ == "__main__":
    main()
