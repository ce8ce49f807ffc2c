"""End-to-end equivalence of the batched execution path.

``batched_execution=True`` must be a pure performance knob: under float64
and float32 a batched MLP run is *byte-identical* to the sequential oracle
for every registered algorithm, and every ineligible client (freeloaders, attackers,
tiny shards) or unsupported model (PaperCNN, MLP subclasses) transparently
falls back to the sequential path.
"""

import tracemalloc

import numpy as np
import pytest

from repro.algorithms import algorithm_names, make_strategy
from repro.attacks import FreeloaderClient
from repro.autograd import default_dtype
from repro.data import TensorDataset
from repro.fl import (
    BatchedCohortExecutor,
    Client,
    CostModel,
    FederatedSimulation,
    UniformSampling,
)
from repro.nn.arena import BatchedClientArena
from repro.nn.models import MLP, PaperCNN

FEATURES = 10
CLASSES = 3

#: Deliberately uneven shards: two are smaller than the batch size, so the
#: cohort splits into one batched group (batch 8) plus sequential singletons.
SHARD_SIZES = (40, 40, 6, 40, 3, 40)
BATCH_SIZE = 8


def make_shards(rng, sizes=SHARD_SIZES, feature_shape=(FEATURES,)):
    return [
        TensorDataset(rng.normal(size=(n, *feature_shape)), rng.integers(0, CLASSES, size=n))
        for n in sizes
    ]


def make_clients(shards):
    return [
        Client(cid, shard, BATCH_SIZE, np.random.default_rng(100 + cid))
        for cid, shard in enumerate(shards)
    ]


def run_once(algorithm, batched, rng_seed=0, clients_factory=make_clients,
             model_factory=None, rounds=3, participation=None, feature_shape=(FEATURES,)):
    rng = np.random.default_rng(rng_seed)
    shards = make_shards(rng, feature_shape=feature_shape)
    test_set = TensorDataset(
        rng.normal(size=(30, *feature_shape)), rng.integers(0, CLASSES, size=30)
    )
    model_factory = model_factory or (
        lambda: MLP(FEATURES, CLASSES, hidden=(16, 8), rng=np.random.default_rng(7))
    )
    sim = FederatedSimulation(
        model=model_factory(),
        clients=clients_factory(shards),
        strategy=make_strategy(algorithm, local_lr=0.05, local_steps=4, rounds=rounds),
        test_set=test_set,
        participation=participation,
        seed=3,
        batched_execution=batched,
    )
    return sim.run(rounds)


class TestBitIdentity:
    def test_fedavg_uneven_shards_byte_identical(self):
        seq = run_once("fedavg", batched=False)
        bat = run_once("fedavg", batched=True)
        assert all(np.array_equal(a, b) for a, b in zip(seq.final_params, bat.final_params))
        assert np.array_equal(seq.history.accuracies, bat.history.accuracies)

    def test_fedavg_partial_participation_byte_identical(self):
        # Participation sampling happens server-side before the cohort is
        # dispatched; the batched executor must see exactly the sampled jobs.
        seq = run_once("fedavg", batched=False, rounds=4, participation=UniformSampling(0.5))
        bat = run_once("fedavg", batched=True, rounds=4, participation=UniformSampling(0.5))
        assert all(np.array_equal(a, b) for a, b in zip(seq.final_params, bat.final_params))

    # float64 cases keep their bare algorithm ids; float32 ones add a suffix.
    @pytest.mark.parametrize(
        "algorithm,dtype",
        [pytest.param(name, "float64", id=name) for name in algorithm_names()]
        + [pytest.param(name, "float32", id=f"{name}-float32") for name in algorithm_names()],
    )
    def test_correction_algorithms_match(self, algorithm, dtype):
        with default_dtype(dtype):
            seq = run_once(algorithm, batched=False)
            bat = run_once(algorithm, batched=True)
        assert seq.final_params.dtype == bat.final_params.dtype == np.dtype(dtype)
        assert seq.final_params.tobytes() == bat.final_params.tobytes()


class TestFallbacks:
    def test_freeloader_cohort_matches_sequential(self):
        def with_freeloader(shards):
            clients = make_clients(shards)
            clients[1] = FreeloaderClient(
                1, shards[1], BATCH_SIZE, np.random.default_rng(101)
            )
            return clients

        seq = run_once("fedavg", batched=False, clients_factory=with_freeloader)
        bat = run_once("fedavg", batched=True, clients_factory=with_freeloader)
        assert all(np.array_equal(a, b) for a, b in zip(seq.final_params, bat.final_params))

    def test_unsupported_model_runs_sequentially(self):
        class CustomMLP(MLP):
            pass  # exact-type dispatch: subclasses must opt in themselves

        cases = [
            (
                lambda: CustomMLP(FEATURES, CLASSES, hidden=(16, 8), rng=np.random.default_rng(7)),
                (FEATURES,),
            ),
            (
                lambda: PaperCNN(
                    num_classes=CLASSES, width_multiplier=0.25, rng=np.random.default_rng(7)
                ),
                (1, 28, 28),
            ),
        ]
        for factory, feature_shape in cases:
            assert BatchedCohortExecutor.try_build(factory()) is None
            seq = run_once("fedavg", batched=False, model_factory=factory,
                           rounds=2, feature_shape=feature_shape)
            bat = run_once("fedavg", batched=True, model_factory=factory,
                           rounds=2, feature_shape=feature_shape)
            assert seq.final_params.tobytes() == bat.final_params.tobytes()

    def test_executor_preserves_job_order(self):
        rng = np.random.default_rng(0)
        shards = make_shards(rng)
        clients = make_clients(shards)
        model = MLP(FEATURES, CLASSES, hidden=(16, 8), rng=np.random.default_rng(7))
        executor = BatchedCohortExecutor.try_build(model)
        assert executor is not None
        strategy = make_strategy("fedavg", local_lr=0.05, local_steps=2, rounds=2)
        updates = executor.run_cohort(
            strategy,
            model.parameters_vector(),
            [(c, {}) for c in clients],
            CostModel(),
        )
        assert [u.client_id for u in updates] == [c.client_id for c in clients]


class TestMemoryFootprint:
    def test_arena_peak_is_step_independent(self):
        """Peak extra memory is O(K*P) + per-step workspace, not O(steps)."""
        model = MLP(28 * 28, 10, hidden=(32, 16, 8), rng=np.random.default_rng(7))
        rng = np.random.default_rng(0)
        shards = [
            TensorDataset(rng.normal(size=(8, 1, 28, 28)), rng.integers(0, 10, size=8))
            for _ in range(4)
        ]

        def peak_for(steps):
            clients = [
                Client(cid, shards[cid], 4, np.random.default_rng(cid))
                for cid in range(4)
            ]
            executor = BatchedCohortExecutor.try_build(model)
            strategy = make_strategy("fedavg", local_lr=0.05, local_steps=steps, rounds=2)
            jobs = [(c, {}) for c in clients]
            gp = model.parameters_vector()
            executor.run_cohort(strategy, gp, jobs, CostModel())  # warm caches
            tracemalloc.start()
            executor.run_cohort(strategy, gp, jobs, CostModel())
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            return peak

        short, long = peak_for(2), peak_for(8)
        # 4x the steps must not grow the peak: allow generous noise headroom.
        assert long < 1.5 * short


class TestBatchedClientArena:
    def test_rows_alias_parameter_views(self):
        model = MLP(FEATURES, CLASSES, hidden=(5,), rng=np.random.default_rng(1))
        params = model.parameters()
        arena = BatchedClientArena.from_parameters(3, params)
        assert arena is not None and len(arena) == len(params)
        vec = model.parameters_vector()
        arena.load_rows([vec, vec * 2, vec * 3])
        matrix = arena.params_rows()
        assert matrix.shape == (3, vec.size)
        assert np.array_equal(matrix[2], vec * 3)
        # the per-parameter views alias the same storage
        view = arena.view(0)
        assert view.shape == (3,) + params[0].shape
        view[1] += 1.0
        assert np.array_equal(
            arena.params_rows()[1, : params[0].size], (vec * 2)[: params[0].size] + 1.0
        )

    def test_gradients_matrix_zero_when_unset(self):
        model = MLP(FEATURES, CLASSES, hidden=(5,), rng=np.random.default_rng(1))
        arena = BatchedClientArena.from_parameters(2, model.parameters())
        grads = arena.gradients_matrix()
        assert grads.shape == (2, model.parameters_vector().size)
        assert not grads.any()
