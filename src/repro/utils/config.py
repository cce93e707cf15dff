"""Experiment configuration dataclasses.

A federated-learning experiment in this reproduction is fully described by an
:class:`ExperimentConfig`, which nests data, training, attack, and defense
sub-configs.  The dataclasses are plain and serializable (``to_dict`` /
``from_dict``) so benchmark sweeps and example scripts can construct, mutate,
and record them without extra machinery.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.utils.validation import (
    check_fraction,
    check_integer_in_range,
    check_positive,
)


@dataclass
class DataConfig:
    """Which dataset to use and how to partition it across clients.

    Attributes:
        dataset: registered dataset name (``mnist_like``, ``fashion_like``,
            ``cifar_like``, ``agnews_like``).
        num_train: number of training samples generated.
        num_test: number of held-out test samples.
        partition: ``"iid"``, ``"sort_and_partition"`` or ``"dirichlet"``.
        iid_fraction: the paper's ``s`` parameter for the sort-and-partition
            non-IID scheme (fraction of the data spread IID before sorting).
        dirichlet_alpha: concentration for the Dirichlet partitioner.
        shards_per_client: shards assigned per client in the non-IID scheme.
    """

    dataset: str = "mnist_like"
    num_train: int = 2000
    num_test: int = 500
    partition: str = "iid"
    iid_fraction: float = 1.0
    dirichlet_alpha: float = 0.5
    shards_per_client: int = 2

    def validate(self) -> "DataConfig":
        check_integer_in_range(self.num_train, "num_train", minimum=1)
        check_integer_in_range(self.num_test, "num_test", minimum=1)
        check_fraction(self.iid_fraction, "iid_fraction")
        check_positive(self.dirichlet_alpha, "dirichlet_alpha")
        check_integer_in_range(self.shards_per_client, "shards_per_client", minimum=1)
        if self.partition not in {"iid", "sort_and_partition", "dirichlet"}:
            raise ValueError(f"unknown partition scheme {self.partition!r}")
        return self


@dataclass
class TrainingConfig:
    """Optimization hyper-parameters for the federated simulation.

    Mirrors the paper's defaults: momentum SGD (0.9) with weight decay
    5e-4 and one local iteration per round.

    ``dtype`` selects the precision of the whole round: the global model's
    parameters, the clients' gradient computation, and the round gradient
    buffer that flows through the attack → defense → aggregation path.
    ``"float64"`` (default) or ``"float32"`` (halved memory traffic on the
    round hot path, including the collect stage).

    ``collect_backend`` picks the collect strategy: ``"sequential"``
    (default — the seed loop), ``"process"`` (a local fleet of
    ``n_workers`` ``repro-worker`` subprocesses driven by a
    :class:`~repro.fl.transport.collector.DistributedCollector`; at
    ``n_workers=1`` it stays sequential), or ``"distributed"`` (the same
    collector over the ``repro-worker`` fleet listed in ``workers``).  Both
    fleet spellings are bit-identical to the sequential path at any worker
    count, and degrade a dead or timed-out worker through re-dispatch into
    :class:`~repro.fl.participation.RoundPlan` dropouts instead of crashing
    the run.

    ``wire_codec`` picks the gradient wire codec of a fleet's shard frames
    (see :mod:`repro.fl.transport.codec`): ``"raw"`` (default — lossless,
    the pre-codec wire format byte for byte), ``"sign1bit"``, ``"int8"``,
    ``"fp16"``, or ``"topk"``.  The non-raw codecs trade the collect
    contract's bit-exactness for a 16–64× smaller gradient frame; only
    ``"raw"`` is meaningful for the sequential path (which has no wire).

    ``participation`` selects which clients train each round (see
    :mod:`repro.fl.participation`): ``"full"`` (default — every client,
    every round, the paper's cross-silo setting), ``"uniform"`` (a
    ``participation_fraction`` cohort sampled per round, FedAvg-style), or
    ``"fixed_cohort"`` (exactly ``cohort_size`` clients per round).
    ``dropout_rate`` and ``straggler_rate`` simulate sampled clients that
    fail before computing / compute but miss the synchronous deadline.

    The fault-tolerance knobs: ``connect_timeout`` / ``round_timeout``
    bound a fleet's worker handshakes and round replies
    (``round_timeout=None`` waits forever); ``min_cohort_fraction`` is the
    round quorum (at least ``ceil(fraction * cohort_size)`` clients must
    aggregate) and ``on_quorum_loss`` what to do beneath it — ``"accept"``
    the degraded round, ``"retry"`` the plan up to ``quorum_retries``
    times, or ``"abort"`` the run (see
    :class:`~repro.fl.simulation.FederatedSimulation`).
    """

    model: str = "simple_cnn"
    rounds: int = 30
    batch_size: int = 32
    learning_rate: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 5e-4
    local_iterations: int = 1
    lr_decay: float = 1.0
    eval_every: int = 1
    dtype: str = "float64"
    n_workers: int = 1
    collect_backend: str = "sequential"
    workers: Optional[List[str]] = None
    wire_codec: str = "raw"
    participation: str = "full"
    participation_fraction: float = 1.0
    cohort_size: Optional[int] = None
    dropout_rate: float = 0.0
    straggler_rate: float = 0.0
    connect_timeout: float = 10.0
    round_timeout: Optional[float] = 120.0
    min_cohort_fraction: float = 0.0
    on_quorum_loss: str = "accept"
    quorum_retries: int = 2

    def validate(self) -> "TrainingConfig":
        check_integer_in_range(self.rounds, "rounds", minimum=1)
        check_integer_in_range(self.batch_size, "batch_size", minimum=1)
        check_positive(self.learning_rate, "learning_rate")
        check_fraction(self.momentum, "momentum")
        check_positive(self.weight_decay, "weight_decay", strict=False)
        check_integer_in_range(self.local_iterations, "local_iterations", minimum=1)
        check_positive(self.lr_decay, "lr_decay")
        check_integer_in_range(self.eval_every, "eval_every", minimum=1)
        if self.dtype not in {"float32", "float64"}:
            raise ValueError(
                f"dtype must be 'float32' or 'float64', got {self.dtype!r}"
            )
        check_integer_in_range(self.n_workers, "n_workers", minimum=1)
        # Function-scope import: repro.fl.collector owns the backend registry
        # and importing it at module level would cycle (fl imports config).
        from repro.fl.collector import COLLECT_BACKENDS

        if self.collect_backend not in COLLECT_BACKENDS:
            raise ValueError(
                f"collect_backend must be one of {COLLECT_BACKENDS}, "
                f"got {self.collect_backend!r}"
            )
        if self.collect_backend == "distributed":
            if not self.workers:
                raise ValueError(
                    "collect_backend='distributed' requires workers="
                    "['host:port', ...]"
                )
            from repro.fl.transport.client import parse_address

            for spec in self.workers:
                parse_address(spec)
        elif self.workers:
            raise ValueError(
                "workers= is only meaningful with collect_backend='distributed' "
                f"(got collect_backend={self.collect_backend!r})"
            )
        from repro.fl.transport.codec import wire_codec_names

        if self.wire_codec not in wire_codec_names():
            raise ValueError(
                f"wire_codec must be one of {wire_codec_names()}, "
                f"got {self.wire_codec!r}"
            )
        has_wire = self.collect_backend == "distributed" or (
            self.collect_backend == "process" and self.n_workers > 1
        )
        if self.wire_codec != "raw" and not has_wire:
            raise ValueError(
                "wire_codec= is only meaningful on a worker fleet "
                "(collect_backend='distributed', or 'process' with "
                "n_workers > 1) — the sequential path has no wire "
                f"(got collect_backend={self.collect_backend!r}, "
                f"n_workers={self.n_workers})"
            )
        from repro.fl.participation import PARTICIPATION_SCHEDULES

        if self.participation not in PARTICIPATION_SCHEDULES:
            raise ValueError(
                f"participation must be one of {PARTICIPATION_SCHEDULES}, "
                f"got {self.participation!r}"
            )
        check_fraction(self.participation_fraction, "participation_fraction")
        if self.participation_fraction <= 0.0:
            raise ValueError(
                "participation_fraction must be in (0, 1], "
                f"got {self.participation_fraction}"
            )
        if self.cohort_size is not None:
            check_integer_in_range(self.cohort_size, "cohort_size", minimum=1)
        if self.participation == "fixed_cohort" and self.cohort_size is None:
            raise ValueError("participation='fixed_cohort' requires cohort_size")
        check_fraction(self.dropout_rate, "dropout_rate")
        check_fraction(self.straggler_rate, "straggler_rate")
        if self.dropout_rate >= 1.0 or self.straggler_rate >= 1.0:
            raise ValueError("dropout_rate and straggler_rate must be < 1")
        check_positive(self.connect_timeout, "connect_timeout")
        if self.round_timeout is not None:
            check_positive(self.round_timeout, "round_timeout")
        check_fraction(self.min_cohort_fraction, "min_cohort_fraction")
        from repro.fl.faults import QUORUM_POLICIES

        if self.on_quorum_loss not in QUORUM_POLICIES:
            raise ValueError(
                f"on_quorum_loss must be one of {QUORUM_POLICIES}, "
                f"got {self.on_quorum_loss!r}"
            )
        check_integer_in_range(self.quorum_retries, "quorum_retries", minimum=0)
        return self


@dataclass
class AttackConfig:
    """Which attack the Byzantine clients mount and its parameters."""

    name: str = "no_attack"
    byzantine_fraction: float = 0.2
    params: Dict[str, Any] = field(default_factory=dict)

    def validate(self) -> "AttackConfig":
        check_fraction(self.byzantine_fraction, "byzantine_fraction")
        if self.byzantine_fraction >= 0.5:
            raise ValueError(
                "byzantine_fraction must be < 0.5 (Byzantine minority assumption)"
            )
        return self


@dataclass
class DefenseConfig:
    """Which gradient aggregation rule the server runs and its parameters."""

    name: str = "signguard"
    params: Dict[str, Any] = field(default_factory=dict)

    def validate(self) -> "DefenseConfig":
        if not self.name:
            raise ValueError("defense name must be non-empty")
        return self


@dataclass
class ExperimentConfig:
    """Complete description of one federated-learning experiment."""

    num_clients: int = 50
    seed: int = 0
    data: DataConfig = field(default_factory=DataConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    attack: AttackConfig = field(default_factory=AttackConfig)
    defense: DefenseConfig = field(default_factory=DefenseConfig)
    tag: str = ""

    def validate(self) -> "ExperimentConfig":
        check_integer_in_range(self.num_clients, "num_clients", minimum=2)
        self.data.validate()
        self.training.validate()
        self.attack.validate()
        self.defense.validate()
        if self.num_byzantine * 2 >= self.num_clients:
            raise ValueError(
                f"{self.num_byzantine} Byzantine clients out of {self.num_clients} "
                "violates the Byzantine-minority assumption"
            )
        if (
            self.training.cohort_size is not None
            and self.training.cohort_size > self.num_clients
        ):
            raise ValueError(
                f"cohort_size={self.training.cohort_size} exceeds "
                f"num_clients={self.num_clients}"
            )
        return self

    @property
    def num_byzantine(self) -> int:
        """Number of Byzantine clients implied by the attack fraction."""
        return int(round(self.attack.byzantine_fraction * self.num_clients))

    @property
    def num_benign(self) -> int:
        """Number of benign clients."""
        return self.num_clients - self.num_byzantine

    def to_dict(self) -> Dict[str, Any]:
        """Serialize to a plain nested dictionary."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ExperimentConfig":
        """Reconstruct a config from :meth:`to_dict` output."""
        data = DataConfig(**payload.get("data", {}))
        training = TrainingConfig(**payload.get("training", {}))
        attack = AttackConfig(**payload.get("attack", {}))
        defense = DefenseConfig(**payload.get("defense", {}))
        return cls(
            num_clients=payload.get("num_clients", 50),
            seed=payload.get("seed", 0),
            data=data,
            training=training,
            attack=attack,
            defense=defense,
            tag=payload.get("tag", ""),
        )

    def replace(self, **overrides: Any) -> "ExperimentConfig":
        """Return a copy with top-level fields replaced."""
        return dataclasses.replace(self, **overrides)

    def describe(self) -> str:
        """Short human-readable identifier for logs and benchmark rows."""
        return (
            f"{self.data.dataset}/{self.training.model} "
            f"attack={self.attack.name} defense={self.defense.name} "
            f"beta={self.attack.byzantine_fraction:.2f}"
        )


def default_paper_config(
    dataset: str = "mnist_like",
    attack: str = "no_attack",
    defense: str = "signguard",
    *,
    byzantine_fraction: float = 0.2,
    seed: int = 0,
) -> ExperimentConfig:
    """The paper's default setup scaled to laptop size.

    50 clients, 20% Byzantine, IID data, momentum 0.9, weight decay 5e-4,
    one local iteration per round.  Model and round budget are chosen per
    dataset to keep single experiments fast while preserving the qualitative
    attack/defense behaviour.
    """
    training_by_dataset = {
        "mnist_like": TrainingConfig(model="simple_cnn", rounds=40, learning_rate=0.05),
        "fashion_like": TrainingConfig(
            model="simple_cnn", rounds=40, learning_rate=0.05
        ),
        "cifar_like": TrainingConfig(
            model="resnet_lite", rounds=40, learning_rate=0.05
        ),
        "agnews_like": TrainingConfig(model="textrnn", rounds=30, learning_rate=0.5),
    }
    if dataset not in training_by_dataset:
        raise ValueError(f"unknown dataset {dataset!r}")
    return ExperimentConfig(
        num_clients=50,
        seed=seed,
        data=DataConfig(dataset=dataset),
        training=training_by_dataset[dataset],
        attack=AttackConfig(name=attack, byzantine_fraction=byzantine_fraction),
        defense=DefenseConfig(name=defense),
    ).validate()
