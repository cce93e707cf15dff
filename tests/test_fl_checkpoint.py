"""Checkpoint/resume: file format, capture/restore, kill-and-resume proofs.

The acceptance contract of the fault-tolerant runtime: a run killed by a
fleet outage and resumed from its last checkpoint is **bit-identical** to
the run that never died — same per-round losses, same accuracies, same
final model bits — on the sequential, process, and distributed backends.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro import (
    AttackConfig,
    DataConfig,
    DefenseConfig,
    ExperimentConfig,
    TrainingConfig,
)
from repro.fl import run_experiment
from repro.fl.checkpoint import (
    CHECKPOINT_MAGIC,
    Checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.fl.collector import SequentialCollector
from repro.fl.faults import FaultSchedule, FleetOutageError
from repro.fl.simulation import FederatedSimulation
from repro.fl.transport import DistributedCollector, start_thread_fleet
from repro.utils.serialization import arrays_to_blob
from tests.test_fl_transport import PlannedSchedule, build_simulation, make_plan


def rng_state(seed):
    return np.random.default_rng(seed).bit_generator.state


def make_checkpoint(**overrides):
    fields = dict(
        rounds_completed=3,
        model_state={
            "dense.weight": np.arange(6.0).reshape(2, 3),
            "dense.bias": np.array([0.5, -0.5]),
        },
        velocities=[np.full(6, 0.25), None],
        learning_rate=0.05,
        previous_gradient=np.linspace(-1.0, 1.0, 8),
        server_round_index=3,
        server_rng_state=rng_state(1),
        attack_rng_state=rng_state(2),
        participation_rng_state=rng_state(3),
        client_rng_states={0: rng_state(4), 5: rng_state(5)},
        attack_state={"phase": 2},
        recorder_state={"description": "test", "rounds": []},
        config={"seed": 7},
    )
    fields.update(overrides)
    return Checkpoint(**fields)


class TestCheckpointFile:
    def test_save_load_roundtrip(self, tmp_path):
        path = tmp_path / "run.ckpt"
        original = make_checkpoint()
        assert save_checkpoint(original, path) == path
        loaded = load_checkpoint(path)
        assert loaded.rounds_completed == 3
        assert loaded.model_state.keys() == original.model_state.keys()
        for name, array in original.model_state.items():
            assert np.array_equal(loaded.model_state[name], array)
        assert np.array_equal(loaded.velocities[0], original.velocities[0])
        assert loaded.velocities[1] is None
        assert loaded.learning_rate == 0.05
        assert np.array_equal(
            loaded.previous_gradient, original.previous_gradient
        )
        assert loaded.server_rng_state == original.server_rng_state
        assert loaded.attack_rng_state == original.attack_rng_state
        assert loaded.participation_rng_state == original.participation_rng_state
        # JSON stringifies the client ids; load re-ints them.
        assert loaded.client_rng_states == original.client_rng_states
        assert all(isinstance(k, int) for k in loaded.client_rng_states)
        assert loaded.attack_state == {"phase": 2}
        assert loaded.recorder_state == original.recorder_state
        assert loaded.config == {"seed": 7}

    def test_optional_fields_roundtrip_as_none(self, tmp_path):
        path = tmp_path / "sparse.ckpt"
        save_checkpoint(
            make_checkpoint(
                previous_gradient=None,
                participation_rng_state=None,
                velocities=[None, None],
                attack_state={},
                config=None,
            ),
            path,
        )
        loaded = load_checkpoint(path)
        assert loaded.previous_gradient is None
        assert loaded.participation_rng_state is None
        assert loaded.velocities == [None, None]
        assert loaded.attack_state == {}
        assert loaded.config is None

    def test_loaded_arrays_are_writable(self, tmp_path):
        # blob_to_arrays returns read-only views; the loader must copy so
        # restored state can be trained on.
        path = tmp_path / "run.ckpt"
        save_checkpoint(make_checkpoint(), path)
        loaded = load_checkpoint(path)
        loaded.model_state["dense.bias"] += 1.0
        loaded.velocities[0][0] = 9.0

    def test_save_is_atomic_and_replaces(self, tmp_path):
        path = tmp_path / "run.ckpt"
        save_checkpoint(make_checkpoint(rounds_completed=1), path)
        save_checkpoint(make_checkpoint(rounds_completed=2), path)
        assert load_checkpoint(path).rounds_completed == 2
        assert list(tmp_path.iterdir()) == [path]  # no .tmp left behind

    def test_too_short_rejected(self, tmp_path):
        path = tmp_path / "short.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC[:4])
        with pytest.raises(ValueError, match="too short"):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "other.ckpt"
        save_checkpoint(make_checkpoint(), path)
        payload = bytearray(path.read_bytes())
        payload[:8] = b"NOTACKPT"
        path.write_bytes(bytes(payload))
        with pytest.raises(ValueError, match="bad magic"):
            load_checkpoint(path)

    def test_future_version_rejected(self, tmp_path):
        path = tmp_path / "future.ckpt"
        save_checkpoint(make_checkpoint(), path)
        payload = bytearray(path.read_bytes())
        payload[8:12] = struct.pack("!I", 99)
        path.write_bytes(bytes(payload))
        with pytest.raises(ValueError, match="format version 99"):
            load_checkpoint(path)

    def test_truncated_metadata_rejected(self, tmp_path):
        path = tmp_path / "torn.ckpt"
        save_checkpoint(make_checkpoint(), path)
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)

    def test_unknown_array_rejected(self, tmp_path):
        import json

        path = tmp_path / "alien.ckpt"
        meta = {
            "rounds_completed": 0,
            "learning_rate": 0.1,
            "server_round_index": 0,
            "num_velocities": 0,
            "server_rng_state": rng_state(0),
            "attack_rng_state": rng_state(0),
            "participation_rng_state": None,
            "client_rng_states": {},
            "attack_state": {},
            "recorder_state": {},
            "config": None,
        }
        meta_bytes = json.dumps(meta).encode("utf-8")
        path.write_bytes(
            CHECKPOINT_MAGIC
            + struct.pack("!I", 1)
            + struct.pack("!I", len(meta_bytes))
            + meta_bytes
            + arrays_to_blob({"bogus": np.zeros(2)})
        )
        with pytest.raises(ValueError, match="unknown array"):
            load_checkpoint(path)


class TestCaptureRestore:
    def test_restore_rewinds_the_same_simulation_bit_exactly(self):
        simulation = build_simulation(SequentialCollector())
        try:
            simulation.run(2)
            checkpoint = simulation.capture_checkpoint()
            simulation.run(5, start_round=2)
            reference_losses = [r.train_loss for r in simulation.recorder.rounds]
            reference_state = simulation.model.state_dict()

            assert simulation.restore_checkpoint(checkpoint) == 2
            assert len(simulation.recorder.rounds) == 2
            simulation.run(5, start_round=2)
            replayed_losses = [r.train_loss for r in simulation.recorder.rounds]
            replayed_state = simulation.model.state_dict()
        finally:
            simulation.close()
        assert replayed_losses == reference_losses
        for name in reference_state:
            assert np.array_equal(replayed_state[name], reference_state[name])

    def test_restore_into_a_freshly_built_simulation(self):
        donor = build_simulation(SequentialCollector())
        try:
            donor.run(2)
            checkpoint = donor.capture_checkpoint()
            donor.run(4, start_round=2)
            reference = donor.recorder.to_dict()
            reference_state = donor.model.state_dict()
        finally:
            donor.close()

        fresh = build_simulation(SequentialCollector())
        try:
            assert fresh.restore_checkpoint(checkpoint) == 2
            fresh.run(4, start_round=2)
            resumed = fresh.recorder.to_dict()
            resumed_state = fresh.model.state_dict()
        finally:
            fresh.close()
        assert resumed == reference
        for name in reference_state:
            assert np.array_equal(resumed_state[name], reference_state[name])

    def test_snapshot_is_decoupled_from_the_live_run(self, tmp_path):
        # Training past the capture point must not mutate the snapshot:
        # saving it before and after two more rounds yields the same bytes.
        simulation = build_simulation(SequentialCollector())
        try:
            simulation.run(2)
            checkpoint = simulation.capture_checkpoint()
            save_checkpoint(checkpoint, tmp_path / "before.ckpt")
            simulation.run(4, start_round=2)
            save_checkpoint(checkpoint, tmp_path / "after.ckpt")
        finally:
            simulation.close()
        before = (tmp_path / "before.ckpt").read_bytes()
        assert before == (tmp_path / "after.ckpt").read_bytes()

    def test_restore_refuses_foreign_participation_state(self):
        # Every built-in schedule owns an RNG; a custom one that draws no
        # randomness cannot accept a checkpoint that carries a stream state
        # — that checkpoint came from a differently-configured run.
        donor = build_simulation(SequentialCollector())
        try:
            donor.run(1)
            checkpoint = donor.capture_checkpoint()
        finally:
            donor.close()
        assert checkpoint.participation_rng_state is not None

        planned = build_simulation(
            SequentialCollector(),
            schedule=PlannedSchedule([make_plan(0, 8, active=range(8))]),
        )
        try:
            with pytest.raises(ValueError, match="draws no randomness"):
                planned.restore_checkpoint(checkpoint)
        finally:
            planned.close()

    def test_run_validates_checkpoint_arguments(self):
        simulation = build_simulation(SequentialCollector())
        try:
            with pytest.raises(ValueError, match="given together"):
                simulation.run(2, checkpoint_every=1)
            with pytest.raises(ValueError, match="start_round"):
                simulation.run(2, start_round=3)
            with pytest.raises(ValueError, match="checkpoint_every"):
                simulation.run(
                    2, checkpoint_every=0, checkpoint_path="unused.ckpt"
                )
        finally:
            simulation.close()

    def test_distributed_resume_onto_a_replacement_fleet(self):
        # The cross-host resume story: checkpoint a distributed run (the
        # client RNG streams live in the workers and come back through the
        # trailers), then restore onto a brand-new fleet — losses and model
        # bits must match the uninterrupted run exactly.
        with start_thread_fleet(2) as fleet:
            simulation = build_simulation(
                DistributedCollector(fleet.addresses, connect_timeout=5.0)
            )
            try:
                simulation.run(2)
                checkpoint = simulation.capture_checkpoint()
                simulation.run(4, start_round=2)
                reference = simulation.recorder.to_dict()
                reference_state = simulation.model.state_dict()
            finally:
                simulation.close()
        # The workers reported every client's post-round stream state.
        assert sorted(checkpoint.client_rng_states) == list(range(8))

        with start_thread_fleet(2) as fleet:
            replacement = build_simulation(
                DistributedCollector(fleet.addresses, connect_timeout=5.0)
            )
            try:
                assert replacement.restore_checkpoint(checkpoint) == 2
                replacement.run(4, start_round=2)
                resumed = replacement.recorder.to_dict()
                resumed_state = replacement.model.state_dict()
            finally:
                replacement.close()
        assert resumed == reference
        for name in reference_state:
            assert np.array_equal(resumed_state[name], reference_state[name])


def fast_config(**overrides):
    config = ExperimentConfig(
        num_clients=8,
        seed=3,
        data=DataConfig(dataset="mnist_like", num_train=240, num_test=80),
        training=TrainingConfig(
            model="mlp",
            rounds=6,
            batch_size=16,
            learning_rate=0.1,
            eval_every=1,
        ),
        attack=AttackConfig(name="sign_flip", byzantine_fraction=0.25),
        defense=DefenseConfig(name="signguard"),
    )
    return config.replace(**overrides)


class TestKillAndResume:
    def test_sequential_crash_resume_is_bit_identical(self, tmp_path):
        config = fast_config()
        baseline = run_experiment(config)

        path = tmp_path / "run.ckpt"
        # The fleet dies during round index 4 — after the checkpoint that
        # round 4 (completed=4, every 2) just saved.
        with pytest.raises(FleetOutageError):
            run_experiment(
                config,
                fault_schedule=FaultSchedule.from_args(["crash@5"]),
                checkpoint_every=2,
                checkpoint_path=path,
            )
        resumed = run_experiment(config, resume_from=path)
        assert load_checkpoint(path).rounds_completed == 4
        assert resumed.to_dict() == baseline.to_dict()
        assert resumed.metadata["config"] == baseline.metadata["config"]

    def test_process_backend_crash_resume_is_bit_identical(self, tmp_path, monkeypatch):
        # The in-worker client RNG streams must survive the kill: they are
        # captured from the workers' round replies, not the parent's stale
        # client objects.
        config = fast_config(seed=11)
        config.training.rounds = 5
        config.training.n_workers = 2
        config.training.collect_backend = "process"
        baseline = run_experiment(config)

        # Both worker processes are killed as round index 2 starts: the
        # recovery ladder finds no survivor, so the round is an outage.
        run_round = FederatedSimulation.run_round

        def kill_fleet_then_run(simulation, round_index):
            if round_index == 2:
                for worker in simulation.collector.fleet.workers:
                    worker.kill()
            return run_round(simulation, round_index)

        path = tmp_path / "run.ckpt"
        with monkeypatch.context() as patch:
            patch.setattr(FederatedSimulation, "run_round", kill_fleet_then_run)
            with pytest.raises(FleetOutageError):
                run_experiment(config, checkpoint_every=1, checkpoint_path=path)
        resumed = run_experiment(config, resume_from=path)
        assert load_checkpoint(path).rounds_completed == 2
        assert resumed.to_dict() == baseline.to_dict()

    def test_resume_accepts_a_loaded_checkpoint_object(self, tmp_path):
        config = fast_config()
        config.training.rounds = 2
        path = tmp_path / "run.ckpt"
        finished = run_experiment(
            config, checkpoint_every=2, checkpoint_path=path
        )
        # Resuming a finished run replays no rounds: the restored recorder
        # IS the result.
        resumed = run_experiment(config, resume_from=load_checkpoint(path))
        assert resumed.rounds == finished.rounds  # same history
        assert [r.train_loss for r in resumed.rounds] == [
            r.train_loss for r in finished.rounds
        ]

    def test_resume_under_a_different_config_is_refused(self, tmp_path):
        config = fast_config()
        config.training.rounds = 2
        path = tmp_path / "run.ckpt"
        run_experiment(config, checkpoint_every=2, checkpoint_path=path)
        with pytest.raises(ValueError, match="different experiment config"):
            run_experiment(fast_config(seed=4), resume_from=path)
