"""Population-scale client registry: identity without execution.

A :class:`ClientRegistry` represents an arbitrarily large client
population as *virtual descriptors*: each client's data seed, shard size,
availability, and device speed tier are a pure function of
``(registry seed, client id)``, computed on demand by a splitmix64-style
seed mixer.  Nothing is stored per client, so a 1,000,000-entry registry
costs the same memory as a 1,000-entry one — O(1) plus whatever the
O(cohort) materialized clients of the current round hold.

Materialization (:meth:`ClientRegistry.materialize`) builds a real
:class:`~repro.fl.client.Client` — shard sampled from the registry's
:class:`~repro.data.ondemand.ShardFactory`, private batch-sampler RNG —
and :meth:`ClientRegistry.release` tears it down again, saving only the
RNG stream position (a few dict entries) so a re-selected client resumes
its mini-batch stream bit-exactly.

Because every derived quantity is keyed by the stable client *id*, growing
the population or filtering it to a subset never changes an existing
client's descriptor, shard, or RNG stream (regression-tested).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from ..data.dataset import TensorDataset
from ..data.ondemand import ShardFactory
from ..data.registry import DatasetSpec, get_spec
from ..fl.client import Client
from ..nn.module import Module

_MASK64 = (1 << 64) - 1


def stable_seed(*parts: int) -> int:
    """Mix integer parts into one 64-bit seed (splitmix64 finalizer).

    A pure function of its arguments: ``stable_seed(seed, cid)`` gives
    client ``cid`` the same derived seed no matter how many other clients
    exist, which is what makes registry growth a no-op for existing
    clients.  The avalanche of the splitmix64 finalizer keeps neighbouring
    ids' streams statistically independent.
    """
    acc = 0x9E3779B97F4A7C15
    for part in parts:
        acc = (acc ^ (int(part) & _MASK64)) * 0xBF58476D1CE4E5B9 & _MASK64
        acc ^= acc >> 27
    acc = (acc ^ (acc >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    acc = (acc ^ (acc >> 27)) * 0x94D049BB133111EB & _MASK64
    return acc ^ (acc >> 31)


#: Device speed tiers: name -> (selection weight, speed-factor range).
#: speed_factor multiplies per-step compute time (larger = slower device).
SPEED_TIERS: Dict[str, Tuple[float, Tuple[float, float]]] = {
    "fast": (0.2, (0.7, 0.9)),
    "medium": (0.6, (0.9, 1.3)),
    "slow": (0.2, (1.3, 2.5)),
}

_TIER_NAMES = tuple(SPEED_TIERS)
_TIER_WEIGHTS = np.array([SPEED_TIERS[t][0] for t in _TIER_NAMES])
_TIER_WEIGHTS = _TIER_WEIGHTS / _TIER_WEIGHTS.sum()


@dataclass(frozen=True)
class ClientDescriptor:
    """Lightweight identity record for one virtual client.

    Never stored in bulk — computed on demand from the registry seed and
    the client id, so holding a million of these is never necessary.
    """

    client_id: int
    data_seed: int  # keys the client's shard draw in the ShardFactory
    num_samples: int  # local shard size
    availability: float  # steady-state probability of being reachable
    speed_tier: str  # fast | medium | slow
    speed_factor: float  # per-step compute multiplier for the cost model


class ClientRegistry:
    """A virtual population of federated clients.

    Parameters
    ----------
    population:
        Number of registered clients.  Ids are ``0..population-1`` unless
        an explicit ``ids`` sequence is given (subset views use this).
    dataset:
        Dataset spec or name; shards come from a shared
        :class:`ShardFactory` keyed by ``seed``.
    seed:
        Root seed.  Every descriptor field and every per-client RNG stream
        is derived from ``stable_seed(seed, client_id, tag)``.
    samples_per_client:
        Mean local shard size; actual sizes vary ±50% per client.
    batch_size:
        Mini-batch size for materialized clients.
    dirichlet_phi:
        Label-skew concentration for per-client shards (None = IID).
    """

    def __init__(
        self,
        population: int,
        dataset: DatasetSpec | str = "adult",
        seed: int = 0,
        samples_per_client: int = 32,
        batch_size: int = 16,
        dirichlet_phi: Optional[float] = 0.5,
        ids: Optional[Sequence[int]] = None,
        factory: Optional[ShardFactory] = None,
    ) -> None:
        if population < 1:
            raise ValueError(f"population must be >= 1, got {population}")
        if samples_per_client < 2:
            raise ValueError(f"samples_per_client must be >= 2, got {samples_per_client}")
        if dirichlet_phi is not None and not dirichlet_phi > 0:
            raise ValueError(f"dirichlet_phi must be > 0 (or None for IID), got {dirichlet_phi}")
        self.population = int(population)
        self.spec = get_spec(dataset) if isinstance(dataset, str) else dataset
        self.seed = int(seed)
        self.samples_per_client = int(samples_per_client)
        self.batch_size = int(batch_size)
        self.dirichlet_phi = dirichlet_phi
        self._ids: Sequence[int] = range(self.population) if ids is None else ids
        if ids is not None and len(ids) != population:
            raise ValueError(f"ids length {len(ids)} != population {population}")
        self.factory = factory if factory is not None else ShardFactory(self.spec, seed=self.seed)
        # Saved batch-sampler stream positions of released clients, keyed
        # by stable id.  The only per-client state the registry ever
        # retains, and only for clients that have actually participated —
        # bounded by (participants so far), not population.
        self._rng_states: Dict[int, Any] = {}

    # -- identity ------------------------------------------------------

    def ids(self) -> Sequence[int]:
        """All registered client ids — a ``range`` (O(1)) for full views."""
        return self._ids

    def __len__(self) -> int:
        return self.population

    def __contains__(self, client_id: int) -> bool:
        return client_id in self._ids

    def descriptor(self, client_id: int) -> ClientDescriptor:
        """Compute the descriptor for one client (pure, O(1))."""
        if client_id not in self._ids:
            raise KeyError(f"client {client_id} is not registered")
        rng = np.random.default_rng(stable_seed(self.seed, client_id, 1))
        tier = _TIER_NAMES[int(rng.choice(len(_TIER_NAMES), p=_TIER_WEIGHTS))]
        lo, hi = SPEED_TIERS[tier][1]
        speed = float(rng.uniform(lo, hi))
        availability = float(rng.uniform(0.5, 1.0))
        jitter = rng.uniform(0.5, 1.5)
        num_samples = max(2, int(round(self.samples_per_client * jitter)))
        return ClientDescriptor(
            client_id=int(client_id),
            data_seed=stable_seed(self.seed, client_id, 2),
            num_samples=num_samples,
            availability=availability,
            speed_tier=tier,
            speed_factor=speed,
        )

    # -- execution -----------------------------------------------------

    def materialize(self, client_id: int) -> Client:
        """Build the real :class:`Client` for one id (O(shard size)).

        The batch-sampler RNG starts from ``stable_seed(seed, id, 3)`` on
        first materialization and resumes its saved stream position on
        re-materialization, so a client's mini-batch sequence is one
        continuous stream across selections.
        """
        desc = self.descriptor(client_id)
        shard = self.factory.shard(desc.data_seed, desc.num_samples, self.dirichlet_phi)
        rng = np.random.default_rng(stable_seed(self.seed, client_id, 3))
        if client_id in self._rng_states:
            rng.bit_generator.state = self._rng_states[client_id]
        return Client(
            client_id=desc.client_id,
            dataset=shard,
            batch_size=min(self.batch_size, desc.num_samples),
            rng=rng,
            speed_factor=desc.speed_factor,
        )

    def release(self, client: Client) -> None:
        """Drop a materialized client, keeping only its RNG position."""
        self._rng_states[client.client_id] = client.sampler.rng.bit_generator.state

    def reset(self) -> None:
        """Forget all saved RNG positions (fresh-run semantics)."""
        self._rng_states.clear()

    # -- views ---------------------------------------------------------

    def subset(self, client_ids: Sequence[int]) -> "ClientRegistry":
        """A view over a subset of ids sharing this registry's identity.

        Descriptors, shards, and RNG streams are invariant under
        subsetting: the view derives everything from the same root seed
        and the same stable ids (and shares the parent's shard factory
        and saved RNG positions).
        """
        for cid in client_ids:
            if cid not in self._ids:
                raise KeyError(f"client {cid} is not registered")
        view = ClientRegistry(
            population=len(client_ids),
            dataset=self.spec,
            seed=self.seed,
            samples_per_client=self.samples_per_client,
            batch_size=self.batch_size,
            dirichlet_phi=self.dirichlet_phi,
            ids=list(client_ids),
            factory=self.factory,
        )
        view._rng_states = self._rng_states
        return view

    # -- server-side helpers ------------------------------------------

    def test_set(self, size: int) -> TensorDataset:
        """Balanced held-out evaluation shard from the shared geometry."""
        return self.factory.test_shard(size, data_seed=stable_seed(self.seed, -1, 4))

    def make_model(self, width_multiplier: float = 1.0) -> Module:
        """The architecture the dataset spec pairs with this population."""
        return self.spec.make_model(
            rng=np.random.default_rng(stable_seed(self.seed, -1, 5)),
            width_multiplier=width_multiplier,
        )
