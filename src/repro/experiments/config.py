"""Experiment configuration.

One :class:`ExperimentConfig` fully describes an FL run: dataset, scale,
partition, algorithm-independent hyper-parameters, and the freeloader mix.
The defaults are CPU-budget scaled; :func:`paper_scale_config` documents the
paper's original parameters for each dataset (Section V-A) for runs on
serious hardware.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from ..attacks.registry import attack_names
from ..data.registry import get_spec

#: Poisoning-attack client kinds (see :mod:`repro.attacks.registry`).
ATTACK_KINDS = attack_names()


@dataclass(frozen=True)
class ExperimentConfig:
    """All knobs of one federated experiment (algorithm-independent)."""

    dataset: str = "fmnist"
    num_clients: int = 10  # paper: 20 (100 for Table VII)
    rounds: int = 12  # paper: T in {50, 100, 200}
    local_steps: int = 15  # paper: K in {100, 200, 1000}
    batch_size: int = 16  # paper: s = 64
    local_lr: float = 0.05  # paper: 0.01 (1.0 for Shakespeare)
    global_lr: Optional[float] = None  # None -> eta_g = K * eta_l (paper default)
    train_size: int = 500
    test_size: int = 250
    partition: Optional[str] = None  # None -> the dataset's Table IV default
    phi: Optional[float] = None  # Dirichlet concentration override
    width_multiplier: float = 0.25  # model width scale (1.0 = paper architecture)
    num_freeloaders: int = 0  # paper uses 8 of 20 in Tables II/VIII
    camouflage_noise: float = 0.02
    attack: Optional[str] = None  # poisoning attack: one of ATTACK_KINDS
    num_attackers: int = 0  # clients replaced by `attack` clients
    seed: int = 0
    eval_every: int = 1
    speed_spread: float = 0.3  # client compute heterogeneity for Fig. 5
    target_accuracy: Optional[float] = None  # None -> dataset default target
    #: Run each round's benign clients through one (K, P) batched program
    #: (see repro.fl.batched).  Only MLP models have one; other models keep
    #: the sequential path.  Off by default: the sequential path is the
    #: oracle, and under float64 batched MLP runs are byte-identical to it.
    batched_execution: bool = False

    def __post_init__(self) -> None:
        get_spec(self.dataset)  # validate the name early
        if self.num_clients <= 0:
            raise ValueError(f"num_clients must be positive, got {self.num_clients}")
        if self.num_freeloaders < 0 or self.num_freeloaders >= self.num_clients:
            raise ValueError(
                f"num_freeloaders must be in [0, num_clients), got {self.num_freeloaders}"
            )
        if self.rounds <= 0 or self.local_steps <= 0 or self.batch_size <= 0:
            raise ValueError("rounds, local_steps and batch_size must be positive")
        if self.attack is not None and self.attack not in ATTACK_KINDS:
            raise ValueError(
                f"unknown attack {self.attack!r}; registered attacks: "
                f"{', '.join(ATTACK_KINDS)}"
            )
        if self.num_attackers < 0 or self.num_attackers >= self.num_clients:
            raise ValueError(
                f"num_attackers must be in [0, num_clients), got {self.num_attackers}"
            )
        if self.num_attackers > 0 and self.attack is None:
            raise ValueError("num_attackers > 0 requires an attack kind")

    @property
    def effective_global_lr(self) -> float:
        return self.global_lr if self.global_lr is not None else self.local_steps * self.local_lr

    @property
    def expulsion_limit(self) -> int:
        """The paper's lambda = T/5 default (floored at 2 strikes)."""
        return max(2, self.rounds // 5)

    def with_overrides(self, **changes) -> "ExperimentConfig":
        return replace(self, **changes)


#: Default round-to-accuracy targets per dataset (scaled versions of the
#: paper's Table V targets: adult 78%, FMNIST 70%, SVHN 70%, CIFAR-10 50%,
#: CIFAR-100 54%, Shakespeare 50%).  Synthetic data is easier in absolute
#: terms, so the targets here are calibrated to sit in the same "mid-training
#: crossover" region of the accuracy curves.
DEFAULT_TARGETS = {
    "mnist": 0.70,
    "fmnist": 0.60,
    "femnist": 0.30,
    "svhn": 0.55,
    "cifar10": 0.50,
    "cifar100": 0.15,
    "adult": 0.76,
    "shakespeare": 0.10,
}


def target_for(config: ExperimentConfig) -> float:
    """The run's target accuracy (explicit value or dataset default)."""
    if config.target_accuracy is not None:
        return config.target_accuracy
    return DEFAULT_TARGETS[config.dataset]


def default_config_for(dataset: str, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """CPU-scaled config with per-dataset adjustments.

    Mirrors the paper's per-dataset tweaks at reduced scale: Shakespeare uses
    a larger local learning rate (the paper uses eta_l = 1.0 there vs 0.01
    elsewhere), and the 32x32 RGB datasets get a slightly smaller round
    budget to bound single-core runtime.
    """
    config = (base or ExperimentConfig()).with_overrides(dataset=dataset)
    if dataset == "shakespeare":
        config = config.with_overrides(local_lr=1.0)  # paper: eta_l = 1.0 for Shakespeare
    return config


def paper_scale_config(dataset: str) -> ExperimentConfig:
    """The paper's original Section V-A parameters for a dataset.

    These are provided for completeness/documentation; running them on a
    single CPU core takes days.  All benchmarks use the scaled defaults.
    """
    spec = get_spec(dataset)
    local_lr = 1.0 if dataset == "shakespeare" else 0.01
    return ExperimentConfig(
        dataset=dataset,
        num_clients=20,
        rounds=spec.paper_rounds,
        local_steps=spec.paper_local_steps,
        batch_size=64,
        local_lr=local_lr,
        train_size=spec.paper_train_size,
        test_size=spec.paper_test_size,
        width_multiplier=1.0,
    )
