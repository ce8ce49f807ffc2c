"""Config + assembly helper for population-scale federation runs.

One :class:`FederateConfig` describes a complete semi-async run —
population, cohort, buffer, staleness policy, dataset, algorithm — and
:func:`run_federation` assembles the registry/coordinator pair from it.
The ``repro federate`` CLI subcommand, the table10 scalability
experiment, the ``async_chaos`` workload of ``bench/`` and the memory
contract in ``tests/federation/test_coordinator.py`` all go through
here, so a config serialised into a runrecord fully reproduces its run.
Delivery tracing has no switch here: under an enabled telemetry session
the coordinator writes every delivery's ``serving.*`` spans to the trace,
and the run and its record stay the same either way.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from ..algorithms.registry import make_strategy
from ..fl.degradation import DegradationPolicy
from ..fl.sampling import (
    AvailabilitySampling,
    FullParticipation,
    ParticipationScheme,
    ReservoirSampling,
    UniformSampling,
    participation_names,
)
from ..fl.simulation import SimulationResult
from ..network.plan import NetworkPlan
from ..network.retry import RetryPolicy
from ..network.traffic import ArrivalTrace, make_trace
from ..runrecord import active_record_dir, build_run_record, write_run_record
from .coordinator import AsyncCoordinator
from .registry import ClientRegistry


@dataclass(frozen=True)
class FederateConfig:
    """Everything needed to reproduce one semi-async federation run."""

    dataset: str = "adult"
    algorithm: str = "fedavg"
    population: int = 1_000
    cohort_size: int = 20
    buffer_size: Optional[int] = None  # None = cohort (sync-equivalent)
    rounds: int = 5
    scheme: str = "reservoir"
    local_steps: int = 4
    local_lr: float = 0.05
    global_lr: Optional[float] = None
    batch_size: int = 16
    samples_per_client: int = 32
    dirichlet_phi: Optional[float] = 0.5
    test_size: int = 200
    staleness_power: float = 0.5
    round_deadline: Optional[float] = None
    over_selection: float = 0.0
    min_quorum: int = 1
    max_staleness: Optional[int] = None
    eval_every: int = 1
    width_multiplier: float = 1.0
    seed: int = 0
    # Unreliable-network knobs (all zero/None = perfect wire, the PR-7
    # fast path; see repro.network).  The network seed is the run seed.
    loss_rate: float = 0.0
    duplicate_rate: float = 0.0
    uplink_latency: float = 0.0
    downlink_latency: float = 0.0
    retry_limit: int = 2
    retry_backoff: float = 0.1
    retry_jitter: float = 0.0
    lease_timeout: Optional[float] = None
    # Open-loop traffic replay: a repro.network.traffic trace name
    # ("poisson" / "flash") or None for closed-loop cohort top-up.
    trace: Optional[str] = None
    trace_bursts: int = 64

    def with_overrides(self, **overrides) -> "FederateConfig":
        return replace(self, **overrides)


#: Config for ``repro federate --smoke``: a CI-sized end-to-end run.
SMOKE_CONFIG = FederateConfig(
    population=1_000,
    cohort_size=8,
    buffer_size=4,
    rounds=3,
    local_steps=2,
    samples_per_client=16,
    batch_size=8,
    test_size=80,
    width_multiplier=0.5,
)


def make_scheme(config: FederateConfig) -> ParticipationScheme:
    """Build the participation scheme a config names.

    The per-scheme constructor arguments are derived from the config
    (reservoir gets the cohort size; uniform the equivalent fraction).
    """
    if config.scheme == "reservoir":
        return ReservoirSampling(config.cohort_size)
    if config.scheme == "uniform":
        return UniformSampling(min(1.0, config.cohort_size / config.population))
    if config.scheme == "full":
        return FullParticipation()
    if config.scheme == "availability":
        return AvailabilitySampling()
    raise ValueError(
        f"unknown participation scheme {config.scheme!r}; registered schemes: "
        f"{', '.join(participation_names())}"
    )


def make_degradation(config: FederateConfig) -> Optional[DegradationPolicy]:
    """The degradation policy a config implies, or None for the defaults."""
    if (
        config.round_deadline is None
        and config.over_selection == 0.0
        and config.min_quorum == 1
        and config.max_staleness is None
    ):
        return None
    return DegradationPolicy(
        round_deadline=config.round_deadline,
        over_selection=config.over_selection,
        min_quorum=config.min_quorum,
        max_staleness=config.max_staleness,
    )


def make_network(config: FederateConfig) -> Optional[NetworkPlan]:
    """The network plan a config implies, or None for a perfect wire."""
    plan = NetworkPlan(
        seed=config.seed,
        loss_rate=config.loss_rate,
        duplicate_rate=config.duplicate_rate,
        uplink_latency=config.uplink_latency,
        downlink_latency=config.downlink_latency,
        retry=RetryPolicy(
            base=config.retry_backoff,
            limit=config.retry_limit,
            jitter=config.retry_jitter,
        ),
        lease_timeout=config.lease_timeout,
    )
    return plan if plan.active else None


def make_arrival_trace(config: FederateConfig) -> Optional[ArrivalTrace]:
    """The open-loop arrival trace a config names, or None (closed loop)."""
    if config.trace is None:
        return None
    return make_trace(config.trace, seed=config.seed, bursts=config.trace_bursts)


#: Sentinel: "derive from the config" (None is a meaningful override).
_UNSET = object()


def build_coordinator(
    config: FederateConfig,
    *,
    network=_UNSET,
    arrival_trace=_UNSET,
) -> AsyncCoordinator:
    """Assemble the registry + coordinator a config describes.

    ``network`` / ``arrival_trace`` override the config-derived values
    when given (including an explicit ``None`` or an inert
    ``NetworkPlan.none()`` — the chaos harness uses this to check the
    inert-plan bit-identity invariant).  Delivery tracing is not a config
    field: the coordinator traces whenever telemetry is on, and tracing
    never changes the run or its record.
    """
    registry = ClientRegistry(
        population=config.population,
        dataset=config.dataset,
        seed=config.seed,
        samples_per_client=config.samples_per_client,
        batch_size=config.batch_size,
        dirichlet_phi=config.dirichlet_phi,
    )
    strategy = make_strategy(
        config.algorithm,
        local_lr=config.local_lr,
        local_steps=config.local_steps,
        rounds=config.rounds,
    )
    return AsyncCoordinator(
        registry=registry,
        strategy=strategy,
        test_set=registry.test_set(config.test_size),
        cohort_size=config.cohort_size,
        buffer_size=config.buffer_size,
        participation=make_scheme(config),
        global_lr=config.global_lr,
        degradation=make_degradation(config),
        staleness_power=config.staleness_power,
        eval_every=config.eval_every,
        seed=config.seed,
        model=registry.make_model(width_multiplier=config.width_multiplier),
        network=make_network(config) if network is _UNSET else network,
        arrival_trace=(
            make_arrival_trace(config) if arrival_trace is _UNSET else arrival_trace
        ),
    )


def run_federation(
    config: FederateConfig,
    checkpoint_every: int = 0,
    checkpoint_dir=None,
    resume_from=None,
) -> Tuple[AsyncCoordinator, SimulationResult]:
    """Run one semi-async federation job end to end.

    Inside a :func:`~repro.runrecord.recording_session` the run writes
    ``<dataset>-<algorithm>-p<population>-b<buffer>-s<seed>/runrecord.json``
    under the session's directory, as ``run_algorithm`` does for sync runs.
    """
    coordinator = build_coordinator(config)
    result = coordinator.run(
        config.rounds,
        checkpoint_every=checkpoint_every,
        checkpoint_dir=checkpoint_dir,
        resume_from=resume_from,
    )
    record_dir = active_record_dir()
    if record_dir is not None:
        slug = (
            f"{config.dataset}-{config.algorithm}-p{config.population}"
            f"-b{coordinator.buffer_size}-s{config.seed}"
        )
        write_run_record(
            build_run_record(result, algorithm=config.algorithm, config=config),
            record_dir / slug / "runrecord.json",
        )
    return coordinator, result
