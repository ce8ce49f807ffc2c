"""Batched cohort execution: all K sampled clients' local training in one program.

The sequential round loop trains clients one at a time, so per-round wall
time grows linearly with cohort size even though every benign client runs
the *same* tensor program.  This module stacks the cohort's flat parameter
vectors into one ``(K, P)`` :class:`~repro.nn.arena.BatchedClientArena` and
runs the K local SGD trajectories as batched tensor ops (leading client
axis through the stacked matmuls in :mod:`repro.autograd.ops`),
emitting all K :class:`~repro.fl.state.ClientUpdate`\\ s from one program.

Design constraints, in order:

1. **Bit-identity with the sequential oracle.**  Every batched kernel is
   slice-exact (see the kernel docstrings), each client keeps its private
   mini-batch RNG stream (per-step draws happen in client order, and a
   client's stream is independent of interleaving), and the update
   arithmetic replays the sequential operation order per row.  With
   float64, a batched fedavg round is byte-identical to the sequential
   one; tests/fl/test_batched_execution.py asserts this end to end.
2. **Uneven cohorts.**  Clients are grouped by their *actual* batch size
   ``min(batch_size, len(dataset))`` — padding a GEMM would change BLAS
   blocking and break bit-identity, so each group runs its own batched
   program and singleton groups fall back to the (trivially exact)
   sequential client.
3. **Oracle fallback.**  Only clients whose ``local_round`` is the stock
   :meth:`Client.local_round <repro.fl.client.Client.local_round>` are
   eligible — attack/freeloader subclasses run sequentially, and models
   without a registered batched forward keep the whole cohort sequential
   (``BatchedCohortExecutor.try_build`` returns ``None``).

Memory: peak extra footprint is O(K·P) for the parameter matrix plus the
same for gradients — independent of population size and of the number of
local steps.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..autograd import Tensor, batched_cross_entropy
from ..nn.batched import BatchedModelProgram, supports_batched
from ..nn.module import Module
from ..telemetry import get_telemetry
from .client import Client
from .state import ClientUpdate
from .timing import CostModel

#: One unit of cohort work: (client, its per-round strategy payload).
Job = Tuple[Client, Dict[str, Any]]


class BatchedCohortExecutor:
    """Runs a round's eligible clients through one ``(K, P)`` batched program.

    Build via :meth:`try_build`, which returns ``None`` when the model has
    no batched forward — the simulation then stays on the sequential path.
    Programs are cached per group size, so steady-state rounds allocate no
    new arenas.
    """

    def __init__(self, model: Module) -> None:
        self.model = model
        self._programs: Dict[int, BatchedModelProgram] = {}

    @classmethod
    def try_build(cls, model: Module) -> Optional["BatchedCohortExecutor"]:
        """An executor for ``model``, or ``None`` if it cannot be batched."""
        if not supports_batched(model):
            return None
        return cls(model)

    # ------------------------------------------------------------------
    def run_cohort(
        self,
        strategy,
        global_params: np.ndarray,
        jobs: Sequence[Job],
        cost_model: CostModel,
    ) -> List[ClientUpdate]:
        """Execute every job, batched where possible, in original order.

        Ineligible clients (overridden ``local_round``) and singleton
        batch-size groups run through the sequential oracle; everything
        else is grouped by actual batch size and executed batched.  The
        returned updates preserve the input job order, so downstream
        fault/transport/aggregation processing sees exactly the sequence
        the sequential loop would produce.
        """
        results: Dict[int, ClientUpdate] = {}
        groups: Dict[int, List[int]] = {}
        for index, (client, payload) in enumerate(jobs):
            if type(client).local_round is Client.local_round:
                actual_batch = min(client.batch_size, len(client.dataset))
                groups.setdefault(actual_batch, []).append(index)
            else:
                results[index] = client.local_round(
                    self.model, strategy, global_params, payload, cost_model
                )
        for _, indices in sorted(groups.items()):
            if len(indices) == 1:
                client, payload = jobs[indices[0]]
                results[indices[0]] = client.local_round(
                    self.model, strategy, global_params, payload, cost_model
                )
                continue
            group_updates = self._run_group(
                strategy, global_params, [jobs[i] for i in indices], cost_model
            )
            for index, update in zip(indices, group_updates):
                results[index] = update
        return [results[index] for index in range(len(jobs))]

    # ------------------------------------------------------------------
    def _program(self, clients_count: int) -> BatchedModelProgram:
        program = self._programs.get(clients_count)
        template_dtype = self.model.parameters()[0].data.dtype
        if program is None or program.arena.buffer.dtype != template_dtype:
            program = BatchedModelProgram(self.model, clients_count)
            self._programs[clients_count] = program
        return program

    def _run_group(
        self,
        strategy,
        global_params: np.ndarray,
        group: Sequence[Job],
        cost_model: CostModel,
    ) -> List[ClientUpdate]:
        """One batched program for a group of same-batch-size clients."""
        telemetry = get_telemetry()
        started = time.perf_counter()
        clients = [client for client, _ in group]
        payloads = [payload for _, payload in group]
        client_ids = [client.client_id for client in clients]
        cohort = len(clients)

        with telemetry.span(
            "client_batch", clients=cohort, steps=strategy.local_steps
        ):
            program = self._program(cohort)
            start_rows = [
                global_params + payload.get("start_shift", 0.0)
                for payload in payloads
            ]
            program.load_rows(start_rows)
            params = program.params_rows()  # live (K, P) buffer
            start_matrix = params.copy()

            for step in range(strategy.local_steps):
                batches = [client.sampler.sample() for client in clients]
                features_t = Tensor(np.stack([features for features, _ in batches]))
                targets = np.stack([labels for _, labels in batches])

                def batched_grad_fn(at_matrix: np.ndarray) -> np.ndarray:
                    saved = None
                    if at_matrix is not params:
                        saved = params.copy()
                        np.copyto(params, at_matrix)
                    program.zero_grad()
                    loss = batched_cross_entropy(program.forward(features_t), targets)
                    loss.backward()
                    grads = program.gradients_matrix()
                    if saved is not None:
                        np.copyto(params, saved)
                    return grads

                grads = batched_grad_fn(params)
                for row in range(cohort):
                    prox = strategy.prox_gradient(params[row], payloads[row])
                    if prox is not None:
                        grads[row] += prox
                directions = strategy.batched_local_directions(
                    step, params, grads, batched_grad_fn, client_ids, payloads
                )
                # Bit-identical to the sequential `params -= lr * direction`
                # per client: scalar*matrix and -= are elementwise.
                params -= strategy.local_lr * directions

            deltas = start_matrix - params  # Eq. (5), all clients at once
        wall = time.perf_counter() - started
        telemetry.counter("client.local_steps").add(strategy.local_steps * cohort)

        updates: List[ClientUpdate] = []
        for row, client in enumerate(clients):
            sim = cost_model.round_seconds(
                strategy.compute_profile(), strategy.local_steps, client.speed_factor
            )
            updates.append(
                ClientUpdate(
                    client_id=client.client_id,
                    delta=deltas[row].copy(),
                    num_samples=client.num_samples,
                    num_steps=strategy.local_steps,
                    sim_time=sim,
                    wall_time=wall / cohort,
                    extras=strategy.client_update_extras(
                        client.client_id, payloads[row]
                    ),
                )
            )
        return updates
