"""Tests for experiment configuration dataclasses."""

import pytest

from repro.utils.config import (
    AttackConfig,
    DataConfig,
    DefenseConfig,
    ExperimentConfig,
    TrainingConfig,
    default_paper_config,
)


class TestDataConfig:
    def test_defaults_valid(self):
        DataConfig().validate()

    def test_rejects_unknown_partition(self):
        with pytest.raises(ValueError, match="partition"):
            DataConfig(partition="random").validate()

    def test_rejects_bad_iid_fraction(self):
        with pytest.raises(ValueError):
            DataConfig(iid_fraction=1.5).validate()


class TestTrainingConfig:
    def test_defaults_valid(self):
        TrainingConfig().validate()

    def test_rejects_zero_rounds(self):
        with pytest.raises(ValueError):
            TrainingConfig(rounds=0).validate()

    def test_rejects_negative_learning_rate(self):
        with pytest.raises(ValueError):
            TrainingConfig(learning_rate=-0.1).validate()

    def test_fault_tolerance_defaults_valid(self):
        config = TrainingConfig()
        assert config.connect_timeout == pytest.approx(10.0)
        assert config.round_timeout == pytest.approx(120.0)
        assert config.min_cohort_fraction == 0.0
        assert config.on_quorum_loss == "accept"
        assert config.quorum_retries == 2
        config.validate()

    def test_unbounded_round_timeout_is_valid(self):
        TrainingConfig(round_timeout=None).validate()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("connect_timeout", 0.0),
            ("connect_timeout", -1.0),
            ("round_timeout", 0.0),
            ("round_timeout", -5.0),
            ("min_cohort_fraction", -0.1),
            ("min_cohort_fraction", 1.5),
            ("on_quorum_loss", "panic"),
            ("quorum_retries", -1),
        ],
    )
    def test_rejects_bad_fault_tolerance_values(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainingConfig(**{field: value}).validate()

    def test_default_wire_codec_is_raw(self):
        assert TrainingConfig().wire_codec == "raw"

    @pytest.mark.parametrize(
        "wire_codec", ["raw", "sign1bit", "int8", "fp16", "topk"]
    )
    def test_registered_wire_codecs_valid_on_distributed(self, wire_codec):
        TrainingConfig(
            collect_backend="distributed",
            workers=["127.0.0.1:9000"],
            wire_codec=wire_codec,
        ).validate()

    def test_unknown_wire_codec_rejected(self):
        with pytest.raises(ValueError, match="wire_codec must be one of"):
            TrainingConfig(
                collect_backend="distributed",
                workers=["127.0.0.1:9000"],
                wire_codec="gzip",
            ).validate()

    @pytest.mark.parametrize("backend", ["sequential", "process"])
    def test_non_raw_codec_requires_the_distributed_backend(self, backend):
        # The sequential path (which "process" is at n_workers=1) has no
        # wire; a compressed codec there is a configuration mistake, not a
        # silent no-op.
        with pytest.raises(ValueError, match="only meaningful"):
            TrainingConfig(
                collect_backend=backend, wire_codec="sign1bit"
            ).validate()

    def test_non_raw_codec_valid_on_a_process_fleet(self):
        TrainingConfig(
            collect_backend="process", n_workers=2, wire_codec="sign1bit"
        ).validate()

    @pytest.mark.parametrize("backend", ["sequential", "process"])
    def test_raw_codec_valid_everywhere(self, backend):
        TrainingConfig(collect_backend=backend, wire_codec="raw").validate()

    def test_default_collect_backend_is_sequential(self):
        assert TrainingConfig().collect_backend == "sequential"

    def test_thread_backend_rejected(self):
        # Retired with no alias: a config (or checkpoint echo) naming it
        # fails with the message that lists the valid backends.
        with pytest.raises(ValueError, match="collect_backend must be one of"):
            TrainingConfig(collect_backend="thread", n_workers=2).validate()


class TestAttackConfig:
    def test_rejects_byzantine_majority(self):
        with pytest.raises(ValueError, match="minority"):
            AttackConfig(byzantine_fraction=0.5).validate()


class TestExperimentConfig:
    def test_default_is_valid(self):
        ExperimentConfig().validate()

    def test_byzantine_counts(self):
        config = ExperimentConfig(
            num_clients=50, attack=AttackConfig(byzantine_fraction=0.2)
        )
        assert config.num_byzantine == 10
        assert config.num_benign == 40

    def test_round_trip_serialization(self):
        config = ExperimentConfig(
            num_clients=30,
            seed=7,
            data=DataConfig(dataset="cifar_like", partition="dirichlet"),
            training=TrainingConfig(
                model="resnet_lite",
                rounds=5,
                connect_timeout=2.5,
                round_timeout=None,
                min_cohort_fraction=0.5,
                on_quorum_loss="retry",
                quorum_retries=4,
            ),
            attack=AttackConfig(name="lie", byzantine_fraction=0.3, params={"z": 0.5}),
            defense=DefenseConfig(name="signguard_sim"),
            tag="round-trip",
        )
        restored = ExperimentConfig.from_dict(config.to_dict())
        assert restored == config

    def test_replace_returns_copy(self):
        config = ExperimentConfig()
        other = config.replace(num_clients=10)
        assert other.num_clients == 10
        assert config.num_clients == 50

    def test_describe_mentions_attack_and_defense(self):
        text = ExperimentConfig(
            attack=AttackConfig(name="lie"), defense=DefenseConfig(name="median")
        ).describe()
        assert "lie" in text and "median" in text


class TestDefaultPaperConfig:
    @pytest.mark.parametrize(
        "dataset,model",
        [
            ("mnist_like", "simple_cnn"),
            ("fashion_like", "simple_cnn"),
            ("cifar_like", "resnet_lite"),
            ("agnews_like", "textrnn"),
        ],
    )
    def test_model_matches_dataset(self, dataset, model):
        config = default_paper_config(dataset)
        assert config.training.model == model
        assert config.num_clients == 50
        assert config.attack.byzantine_fraction == pytest.approx(0.2)

    def test_rejects_unknown_dataset(self):
        with pytest.raises(ValueError):
            default_paper_config("imagenet")
