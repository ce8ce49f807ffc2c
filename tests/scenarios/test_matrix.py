"""Tests for the attack × defence × algorithm grid harness."""

import dataclasses
import json

import numpy as np
import pytest

from repro.algorithms import CoordinateMedianAggregation, make_strategy
from repro.data import IIDPartitioner, load_dataset
from repro.experiments import ExperimentConfig
from repro.fl import Client, FederatedSimulation
from repro.fl.state import ClientUpdate, ServerState
from repro.runrecord import canonical_json
from repro.scenarios import (
    CLEAN,
    MATRIX_KIND,
    MATRIX_SCHEMA_VERSION,
    AggregationDefence,
    MatrixError,
    MatrixSpec,
    defence_names,
    load_matrix,
    resolve_defence,
    run_matrix,
    smoke_spec,
    validate_matrix,
    write_matrix,
)


def tiny_spec(**overrides):
    params = dict(
        attacks=("sign-flip",),
        defences=("none", "median"),
        algorithms=("fedavg",),
        phis=(None,),
        seeds=(0,),
        num_attackers=1,
        base=ExperimentConfig(
            dataset="adult",
            num_clients=4,
            rounds=2,
            local_steps=2,
            batch_size=16,
            train_size=160,
            test_size=80,
            width_multiplier=0.3,
        ),
    )
    params.update(overrides)
    return MatrixSpec(**params)


class TestMatrixSpec:
    def test_unknown_attack_lists_registered(self):
        with pytest.raises(ValueError, match="registered attacks"):
            tiny_spec(attacks=("backdoor",))

    def test_unknown_defence_lists_registered(self):
        with pytest.raises(ValueError, match="registered defences"):
            tiny_spec(defences=("firewall",))

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            tiny_spec(algorithms=("adamw",))

    def test_needs_a_seed(self):
        with pytest.raises(ValueError, match="at least one seed"):
            tiny_spec(seeds=())

    def test_attackers_must_fit_cohort(self):
        with pytest.raises(ValueError, match="num_attackers"):
            tiny_spec(num_attackers=4)

    def test_containment_fraction_range(self):
        with pytest.raises(ValueError, match="containment_fraction"):
            tiny_spec(containment_fraction=0.0)

    def test_smoke_spec_is_valid_and_tiny(self):
        spec = smoke_spec()
        assert spec.algorithms == ("fedavg",)
        assert spec.seeds == (0,)
        assert spec.base.dataset == "adult"
        assert smoke_spec(seed=3).seeds == (3,)


class TestResolveDefence:
    def base(self, config):
        return make_strategy(
            "fedavg", local_lr=config.local_lr, local_steps=config.local_steps
        )

    def config(self):
        return tiny_spec().base.with_overrides(attack="sign-flip", num_attackers=1)

    def test_none_is_passthrough(self):
        config = self.config()
        base = self.base(config)
        resolved = resolve_defence("none", config, base)
        assert resolved.strategy is base
        assert resolved.guard is None
        assert resolved.degradation is None

    def test_guard_attaches_policies(self):
        config = self.config()
        resolved = resolve_defence("guard", config, self.base(config))
        assert resolved.guard is not None
        assert resolved.degradation is not None

    def test_robust_name_wraps_base(self):
        config = self.config()
        resolved = resolve_defence("median", config, self.base(config))
        assert isinstance(resolved.strategy, AggregationDefence)
        assert resolved.strategy.name == "fedavg+median"
        assert resolved.guard is None

    def test_krum_sized_to_cell_adversary(self):
        config = self.config()
        resolved = resolve_defence("krum", config, self.base(config))
        assert resolved.strategy.aggregator.byzantine_count == 1

    def test_unknown_name_lists_defences(self):
        config = self.config()
        with pytest.raises(ValueError) as excinfo:
            resolve_defence("firewall", config, self.base(config))
        for name in defence_names():
            assert name in str(excinfo.value)


class TestAggregationDefence:
    def test_robust_estimate_replaces_base(self):
        base = make_strategy("fedavg", local_lr=0.1, local_steps=2)
        aggregator = CoordinateMedianAggregation(local_lr=0.1, local_steps=2)
        wrapped = AggregationDefence(base, aggregator)
        updates = [
            ClientUpdate(i, np.asarray(d, dtype=float), 10, 2, 0.1)
            for i, d in enumerate([[1.0, 1.0], [0.9, 1.1], [100.0, -100.0]])
        ]
        server = ServerState(global_params=np.zeros(2), num_clients=3)
        estimate = wrapped.aggregate(server, updates)
        np.testing.assert_allclose(estimate, np.array([1.0, 1.0]) / (2 * 0.1))

    def test_base_bookkeeping_still_runs(self):
        base = make_strategy("taco", local_lr=0.1, local_steps=2)
        wrapped = AggregationDefence(base, CoordinateMedianAggregation(0.1, 2))
        updates = [
            ClientUpdate(i, np.asarray([1.0, float(i)]), 10, 2, 0.1) for i in range(3)
        ]
        server = ServerState(global_params=np.zeros(2), num_clients=3)
        wrapped.aggregate(server, updates)
        # TACO's alpha bookkeeping ran even though its estimate was discarded.
        assert wrapped.base.last_alphas

    def test_wrapped_taco_keeps_alphas_on_the_record(self):
        bundle = load_dataset("adult", 160, 60, seed=0)
        parts = IIDPartitioner().partition(bundle.train.labels, 4, np.random.default_rng(5))
        clients = [
            Client(i, bundle.train.subset(p), 8, np.random.default_rng(100 + i))
            for i, p in enumerate(parts)
        ]
        wrapped = AggregationDefence(
            make_strategy("taco", local_lr=0.05, local_steps=2),
            make_strategy("median", local_lr=0.05, local_steps=2),
        )
        model = bundle.spec.make_model(rng=np.random.default_rng(0))
        history = FederatedSimulation(model, clients, wrapped, bundle.test, seed=0).run(2).history
        first, last = history.records
        assert last.alphas and last.alphas == wrapped.base.last_alphas
        # Table II's per-client mean reads the wrapped run's alphas too.
        assert history.mean_alpha_by_client() == pytest.approx(
            {cid: (first.alphas[cid] + last.alphas[cid]) / 2 for cid in range(4)}
        )

    def test_hooks_forward_to_base(self):
        base = make_strategy("scaffold", local_lr=0.1, local_steps=2)
        wrapped = AggregationDefence(base, CoordinateMedianAggregation(0.1, 2))
        assert wrapped.has_local_correction == base.has_local_correction
        assert wrapped.has_aggregation_correction
        server = ServerState(global_params=np.zeros(2), num_clients=3)
        assert wrapped.broadcast(server).keys() == base.broadcast(server).keys()
        assert wrapped.compute_profile() == base.compute_profile()

    def test_state_dict_roundtrip(self):
        base = make_strategy("fedavg", local_lr=0.1, local_steps=2)
        aggregator = make_strategy("centered-clip", local_lr=0.1, local_steps=2)
        wrapped = AggregationDefence(base, aggregator)
        updates = [
            ClientUpdate(i, np.asarray([1.0, 1.0]), 10, 2, 0.1) for i in range(3)
        ]
        wrapped.aggregate(ServerState(global_params=np.zeros(2), num_clients=3), updates)
        snapshot = wrapped.state_dict()
        assert "aggregator" in snapshot
        restored = AggregationDefence(
            make_strategy("fedavg", local_lr=0.1, local_steps=2),
            make_strategy("centered-clip", local_lr=0.1, local_steps=2),
        )
        restored.load_state_dict(snapshot)
        np.testing.assert_array_equal(
            restored.aggregator._center, wrapped.aggregator._center
        )
        wrapped.reset()
        assert wrapped.state_dict() == {}


class TestRunMatrix:
    @pytest.fixture(scope="class")
    def matrix(self):
        return run_matrix(tiny_spec())

    def test_cell_grid_is_complete(self, matrix):
        # (clean + 1 attack) x 2 defences x 1 algorithm x 1 phi.
        assert len(matrix["cells"]) == 4
        keys = {(c["attack"], c["defence"]) for c in matrix["cells"]}
        assert keys == {
            (CLEAN, "none"), (CLEAN, "median"),
            ("sign-flip", "none"), ("sign-flip", "median"),
        }
        for cell in matrix["cells"]:
            assert 0.0 <= cell["mean_accuracy"] <= 1.0
            assert cell["ci95"] == 0.0  # single seed
            assert len(cell["accuracies"]) == 1

    def test_verdicts_anchor_on_clean_none(self, matrix):
        verdicts = matrix["verdicts"]
        assert len(verdicts) == 1
        verdict = verdicts[0]
        assert verdict["attack"] == "sign-flip"
        assert verdict["algorithm"] == "fedavg"
        assert isinstance(verdict["degrades"], bool)
        assert set(verdict["contained_by"]) <= {"median"}

    def test_artifact_shape(self, matrix):
        assert matrix["kind"] == MATRIX_KIND
        assert matrix["schema_version"] == MATRIX_SCHEMA_VERSION
        assert matrix["spec"]["config"]["dataset"] == "adult"
        assert validate_matrix(matrix) is matrix

    def test_deterministic_modulo_timing(self, matrix):
        again = run_matrix(tiny_spec())
        first = {k: v for k, v in matrix.items() if k != "timing"}
        second = {k: v for k, v in again.items() if k != "timing"}
        assert canonical_json(first) == canonical_json(second)

    def test_write_load_roundtrip(self, matrix, tmp_path):
        path = write_matrix(matrix, tmp_path / "nested" / "matrix.json")
        loaded = load_matrix(path)
        assert loaded["cells"] == json.loads(canonical_json(matrix))["cells"]


class TestValidateMatrix:
    def test_rejects_non_dict(self):
        with pytest.raises(MatrixError, match="must be an object"):
            validate_matrix([])

    def test_rejects_wrong_kind(self):
        with pytest.raises(MatrixError, match="not a scenario matrix"):
            validate_matrix({"kind": "runrecord"})

    def test_rejects_wrong_version(self):
        with pytest.raises(MatrixError, match="schema version"):
            validate_matrix({"kind": MATRIX_KIND, "schema_version": 99})

    def test_rejects_missing_sections(self):
        with pytest.raises(MatrixError, match="missing 'cells'"):
            validate_matrix(
                {"kind": MATRIX_KIND, "schema_version": MATRIX_SCHEMA_VERSION,
                 "spec": {}, "verdicts": [], "timing": {}}
            )

    def test_rejects_malformed_cell(self):
        with pytest.raises(MatrixError, match="missing 'mean_accuracy'"):
            validate_matrix(
                {"kind": MATRIX_KIND, "schema_version": MATRIX_SCHEMA_VERSION,
                 "spec": {}, "cells": [{"attack": "a", "defence": "d", "algorithm": "x",
                                        "ci95": 0.0}],
                 "verdicts": [], "timing": {}}
            )

    def test_load_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(MatrixError, match="not valid JSON"):
            load_matrix(path)
