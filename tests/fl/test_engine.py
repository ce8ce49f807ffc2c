"""The run lifecycle and checkpoint core shared by the sync and async engines."""

import contextlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import FedAvg, make_strategy
from repro.autograd import default_dtype
from repro.federation import AsyncCoordinator, ClientRegistry
from repro.fl import checkpoint
from repro.fl.sampling import FullParticipation
from repro.fl.simulation import FederatedSimulation
from repro.runrecord import build_run_record
from repro.telemetry import telemetry_session

POPULATION = 6


def make_engine(
    kind, algorithm="taco", eval_every=1, rounds=4, strategy=None, cohort=POPULATION
):
    """A sync simulation or an async coordinator at B = cohort over one registry."""
    registry = ClientRegistry(
        population=POPULATION, seed=0, samples_per_client=16, batch_size=8
    )
    common = dict(
        strategy=strategy
        or make_strategy(algorithm, local_lr=0.05, local_steps=2, rounds=rounds),
        test_set=registry.test_set(40),
        participation=FullParticipation(),
        eval_every=eval_every,
        seed=0,
    )
    model = registry.make_model(width_multiplier=0.5)
    if kind == "sync":
        clients = [registry.materialize(cid) for cid in registry.ids()]
        return FederatedSimulation(model=model, clients=clients, **common)
    return AsyncCoordinator(
        registry=registry,
        cohort_size=cohort,
        buffer_size=cohort,
        model=model,
        **common,
    )


def record_without_timing(result):
    record = build_run_record(result, algorithm="taco")
    record.pop("timing")
    for round_record in record["rounds"]:
        round_record.pop("round_wall_time", None)
    return record


ENGINES = ["sync", "async"]


@pytest.mark.parametrize("kind", ENGINES)
@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(rounds=0), "rounds must be positive"),
        (dict(rounds=2, checkpoint_every=-1), "checkpoint_every must be >= 0"),
        (dict(rounds=2, checkpoint_every=1), "checkpoint_every requires checkpoint_dir"),
    ],
)
def test_run_arguments_checked_alike(kind, kwargs, message):
    with pytest.raises(ValueError, match=message):
        make_engine(kind).run(**kwargs)


@pytest.mark.parametrize("kind", ENGINES)
def test_run_cannot_go_backwards(kind):
    engine = make_engine(kind)
    engine.run(2)
    with pytest.raises(ValueError, match="run already has 2 rounds"):
        engine.run(1)


@settings(max_examples=12, deadline=None)
@given(
    kind=st.sampled_from(ENGINES),
    algorithm=st.sampled_from(["fedavg", "taco", "scaffold"]),
    eval_every=st.integers(1, 2),
    split=st.integers(1, 3),
    via_checkpoint=st.booleans(),
)
def test_split_run_matches_uninterrupted(kind, algorithm, eval_every, split, via_checkpoint):
    """Stopping at any round and going on, by resume or by a second run(), trains bit-exact.

    A resume writes the uninterrupted run's record, diagnostics included.
    Each run then has its own telemetry session, the resumed one a fresh
    session as a restarted process would.
    """
    session = telemetry_session if via_checkpoint else contextlib.nullcontext
    with session():
        straight = make_engine(kind, algorithm, eval_every).run(4)
    first = make_engine(kind, algorithm, eval_every)
    with tempfile.TemporaryDirectory() as directory:
        with session():
            first.run(split, checkpoint_every=split, checkpoint_dir=directory)
        if via_checkpoint:
            with session():
                split_run = make_engine(kind, algorithm, eval_every).run(
                    4, resume_from=directory
                )
        else:
            split_run = first.run(4)
    assert split_run.final_params.tobytes() == straight.final_params.tobytes()
    # The first call's report evaluates its last round even between eval_every
    # points; a checkpoint is written before that, a second run() keeps it.
    same = [i for i in range(4) if via_checkpoint or i != split - 1]
    np.testing.assert_array_equal(
        split_run.history.accuracies[same], straight.history.accuracies[same]
    )
    if via_checkpoint:
        assert [d.round for d in split_run.diagnostics] == list(range(4))
        assert record_without_timing(split_run) == record_without_timing(straight)


def test_sync_oracle_runrecords_match_with_diagnostics():
    """At B = cohort the two engines write the same runrecord, diagnostics included."""
    records = {}
    for kind in ENGINES:
        with telemetry_session():
            records[kind] = record_without_timing(make_engine(kind).run(4))
    assert records["sync"]["diagnostics"]  # diagnostics were actually collected
    assert all(records["sync"]["traffic"].values())  # both engines bill bytes
    assert records["async"] == records["sync"]


def test_async_flush_publishes_round_metrics():
    with telemetry_session() as telemetry:
        make_engine("async").run(3)
        names = set(telemetry.registry.names())
    assert {"round.wall_seconds", "round.sim_seconds", "agg.aggregated"} <= names
    assert telemetry.registry.counter("agg.aggregated").value == 3 * POPULATION


@pytest.mark.parametrize("kind", ENGINES)
def test_eval_every_gap_evaluated_at_the_end(kind):
    """A last round between evaluation points is evaluated before reporting."""
    sparse = make_engine(kind, eval_every=3).run(4)
    dense = make_engine(kind, eval_every=1).run(4)
    assert sparse.final_params.tobytes() == dense.final_params.tobytes()
    assert sparse.history.records[-1].test_accuracy == dense.history.records[-1].test_accuracy
    assert sparse.final_accuracy == dense.final_accuracy


@pytest.mark.parametrize("writer, reader", [("sync", "async"), ("async", "sync")])
def test_other_engine_checkpoint_rejected(tmp_path, writer, reader):
    make_engine(writer).run(2, checkpoint_every=2, checkpoint_dir=tmp_path)
    with pytest.raises(ValueError, match=f"cannot resume the {reader} engine"):
        make_engine(reader).run(4, resume_from=tmp_path)


@pytest.mark.parametrize("kind", ENGINES)
@pytest.mark.parametrize("written, resumed", [("float64", "float32"), ("float32", "float64")])
def test_other_dtype_checkpoint_rejected(tmp_path, kind, written, resumed):
    with default_dtype(written):
        make_engine(kind).run(2, checkpoint_every=2, checkpoint_dir=tmp_path)
    with default_dtype(resumed), pytest.raises(
        ValueError, match=f"parameters are {written}, this run computes in {resumed}"
    ):
        make_engine(kind).run(4, resume_from=tmp_path)


@pytest.mark.parametrize("kind", ENGINES)
def test_float32_checkpoint_resumes_bit_exact(tmp_path, kind):
    with default_dtype("float32"):
        straight = make_engine(kind).run(4)
        make_engine(kind).run(2, checkpoint_every=2, checkpoint_dir=tmp_path)
        resumed = make_engine(kind).run(4, resume_from=tmp_path)
    assert resumed.final_params.dtype == np.float32
    assert resumed.final_params.tobytes() == straight.final_params.tobytes()


@pytest.mark.parametrize("kind", ENGINES)
def test_interrupted_checkpoint_write_keeps_previous_checkpoint(tmp_path, kind, monkeypatch):
    straight = make_engine(kind).run(4)
    engine = make_engine(kind)
    engine.run(2, checkpoint_every=2, checkpoint_dir=tmp_path)

    def killed(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(checkpoint, "save_history", killed)
    with pytest.raises(KeyboardInterrupt):
        engine.run(4, checkpoint_every=2, checkpoint_dir=tmp_path)
    monkeypatch.undo()

    resumed = make_engine(kind).run(4, resume_from=tmp_path)
    assert resumed.final_params.tobytes() == straight.final_params.tobytes()
    np.testing.assert_array_equal(resumed.history.accuracies, straight.history.accuracies)


@pytest.mark.parametrize("kind", ENGINES)
def test_torn_checkpoint_is_rejected(tmp_path, kind, monkeypatch):
    """A write killed between swapping arrays.npz and meta.json is detected."""
    engine = make_engine(kind)
    engine.run(2, checkpoint_every=2, checkpoint_dir=tmp_path)
    swap = os.replace

    def swap_all_but_meta(source, target):
        if Path(target).name == "meta.json":
            raise KeyboardInterrupt
        swap(source, target)

    monkeypatch.setattr(checkpoint.os, "replace", swap_all_but_meta)
    with pytest.raises(KeyboardInterrupt):
        engine.run(4, checkpoint_every=2, checkpoint_dir=tmp_path)
    monkeypatch.undo()

    with pytest.raises(ValueError, match="torn checkpoint"):
        make_engine(kind).run(4, resume_from=tmp_path)


def test_truncated_arrays_file_is_rejected(tmp_path):
    make_engine("sync").run(2, checkpoint_every=2, checkpoint_dir=tmp_path)
    arrays = tmp_path / "arrays.npz"
    arrays.write_bytes(arrays.read_bytes()[:200])
    with pytest.raises(ValueError, match="unreadable checkpoint"):
        make_engine("sync").run(4, resume_from=tmp_path)


@pytest.mark.parametrize("kind", ENGINES)
def test_unstamped_checkpoint_still_resumes_bit_exact(tmp_path, kind):
    """Checkpoints written before the engine stamp keep loading."""
    straight = make_engine(kind).run(4)
    make_engine(kind).run(2, checkpoint_every=2, checkpoint_dir=tmp_path)
    meta_path = tmp_path / "meta.json"
    meta = json.loads(meta_path.read_text())
    del meta["engine"]
    meta_path.write_text(json.dumps(meta))

    resumed = make_engine(kind).run(4, resume_from=tmp_path)
    assert resumed.final_params.tobytes() == straight.final_params.tobytes()
    np.testing.assert_array_equal(resumed.history.accuracies, straight.history.accuracies)


def rewrite_arrays(directory, edit):
    """Replace a checkpoint's ``arrays.npz`` by ``edit(arrays)``."""
    with np.load(directory / "arrays.npz") as archive:
        arrays = {key: archive[key] for key in archive.files}
    np.savez(directory / "arrays.npz", **edit(arrays))


@pytest.mark.parametrize("kind", ENGINES)
def test_checkpoint_stores_parameters_only_as_server_vectors(tmp_path, kind):
    engine = make_engine(kind)
    engine.run(2, checkpoint_every=2, checkpoint_dir=tmp_path)
    with np.load(tmp_path / "arrays.npz") as archive:
        keys = set(archive.files)
    assert "server|global_params" in keys
    parameters = {f"model|{name}" for name, _ in engine.model.named_parameters()}
    assert not keys & parameters


@pytest.mark.parametrize("kind", ENGINES)
def test_parameter_copies_of_older_checkpoints_are_ignored(tmp_path, kind):
    """Older checkpoints also stored every parameter under ``model|``; a
    resume installs w_t from the server vectors and ignores those copies."""
    straight = make_engine(kind).run(4)
    engine = make_engine(kind)
    engine.run(2, checkpoint_every=2, checkpoint_dir=tmp_path)
    copies = {
        f"model|{name}": np.full_like(param.data, np.nan)
        for name, param in engine.model.named_parameters()
    }
    rewrite_arrays(tmp_path, lambda arrays: {**arrays, **copies})

    resumed = make_engine(kind).run(4, resume_from=tmp_path)
    assert resumed.final_params.tobytes() == straight.final_params.tobytes()
    np.testing.assert_array_equal(resumed.history.accuracies, straight.history.accuracies)


@pytest.mark.parametrize("kind", ENGINES)
def test_checkpoint_missing_a_state_array_is_rejected_in_one_line(tmp_path, kind):
    make_engine(kind).run(2, checkpoint_every=2, checkpoint_dir=tmp_path)
    rewrite_arrays(
        tmp_path,
        lambda arrays: {k: v for k, v in arrays.items() if k != "server|global_params"},
    )
    with pytest.raises(ValueError, match="global_params") as error:
        make_engine(kind).run(4, resume_from=tmp_path)
    message = str(error.value)
    assert str(tmp_path) in message and "\n" not in message


class ExpelsClientZero(FedAvg):
    """Expels client 0 once a round is aggregated, through ``expelled`` alone."""

    name = "expel-zero"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.reset()

    def reset(self):
        self._expelled = frozenset()

    def post_round(self, state, updates):
        self._expelled = frozenset({0})

    @property
    def expelled(self):
        return self._expelled

    def state_dict(self):
        return {"expelled": set(self._expelled)}

    def load_state_dict(self, state):
        self._expelled = frozenset(state.get("expelled", ()))


def expelling_engine(kind):
    # Async keeps one client spare: at B = population a flush would wait for
    # an upload the expelled client can no longer send.
    return make_engine(
        kind,
        strategy=ExpelsClientZero(local_lr=0.05, local_steps=2),
        cohort=POPULATION if kind == "sync" else POPULATION - 1,
    )


def assert_client_zero_expelled_once(result):
    records = result.history.records
    assert [r.expelled for r in records] == [[0]] + [[]] * (len(records) - 1)
    assert 0 in records[0].participating
    assert not any(0 in r.participating for r in records[1:])


@pytest.mark.parametrize("kind", ENGINES)
def test_expelled_hook_drives_records_and_dispatch(kind):
    """Both engines record an expulsion from ``Strategy.expelled`` once and honour it."""
    assert_client_zero_expelled_once(expelling_engine(kind).run(4))


@pytest.mark.parametrize("kind", ENGINES)
@pytest.mark.parametrize("via_checkpoint", [True, False], ids=["resume", "second-run"])
def test_split_run_records_expulsion_once(tmp_path, kind, via_checkpoint):
    straight = expelling_engine(kind).run(4)
    first = expelling_engine(kind)
    first.run(2, checkpoint_every=2, checkpoint_dir=tmp_path)
    if via_checkpoint:
        split = expelling_engine(kind).run(4, resume_from=tmp_path)
    else:
        split = first.run(4)
    assert split.final_params.tobytes() == straight.final_params.tobytes()
    assert_client_zero_expelled_once(split)


class ExpelsEveryoneAfterTwoRounds(FedAvg):
    """Expels the whole federation when its second round is aggregated."""

    name = "expel-all"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.reset()

    def reset(self):
        self._rounds = 0
        self._expelled = frozenset()

    def post_round(self, state, updates):
        self._rounds += 1
        if self._rounds == 2:
            self._expelled = frozenset(range(state.num_clients))

    @property
    def expelled(self):
        return self._expelled


@pytest.mark.parametrize("kind", ENGINES)
def test_run_ends_when_every_client_is_expelled(kind):
    """An emptied federation ends the run, undiverged, with the rounds closed so far."""
    strategy = ExpelsEveryoneAfterTwoRounds(local_lr=0.05, local_steps=2)
    result = make_engine(kind, strategy=strategy).run(4)
    assert not result.diverged
    assert [r.round for r in result.history.records] == [0, 1]
    assert result.history.records[-1].expelled == list(range(POPULATION))
    assert np.isfinite(result.final_params).all()


def test_async_checkpoint_with_expelled_seen_still_resumes(tmp_path):
    """Async checkpoints from before expulsions were read off history keep loading."""
    straight = expelling_engine("async").run(4)
    expelling_engine("async").run(2, checkpoint_every=2, checkpoint_dir=tmp_path)
    meta_path = tmp_path / "meta.json"
    meta = json.loads(meta_path.read_text())
    assert "expelled_seen" not in meta
    meta["expelled_seen"] = [0]
    meta_path.write_text(json.dumps(meta))

    resumed = expelling_engine("async").run(4, resume_from=tmp_path)
    assert resumed.final_params.tobytes() == straight.final_params.tobytes()
    assert_client_zero_expelled_once(resumed)
