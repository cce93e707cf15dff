"""High-level experiment runner: config in, run record out.

This is the entry point used by the examples and the benchmark harness:
``run_experiment(config)`` builds the dataset, partitions it, instantiates
the model, attack, and defense, runs the federated simulation, and returns
the :class:`~repro.utils.recording.RunRecorder` with per-round metrics.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple, Union

import numpy as np

from repro.aggregators.factory import build_aggregator
from repro.attacks.factory import build_attack
from repro.data.factory import build_dataset
from repro.data.partition import partition_dataset
from repro.fl.checkpoint import Checkpoint, load_checkpoint
from repro.fl.collector import make_collector
from repro.fl.faults import FaultSchedule
from repro.fl.participation import build_participation
from repro.fl.server import FederatedServer
from repro.fl.simulation import FederatedSimulation, build_clients
from repro.nn.models.factory import build_model
from repro.perf.profiler import RoundProfiler
from repro.utils.config import ExperimentConfig
from repro.utils.recording import RunRecorder
from repro.utils.rng import RngFactory


def _select_byzantine(num_clients: int, num_byzantine: int, rng) -> np.ndarray:
    """Randomly choose which client ids the attacker controls."""
    if num_byzantine == 0:
        return np.array([], dtype=int)
    return np.sort(rng.choice(num_clients, size=num_byzantine, replace=False))


def run_experiment(
    config: ExperimentConfig,
    *,
    profiler: Optional["RoundProfiler"] = None,
    fault_schedule: Optional[FaultSchedule] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_path=None,
    resume_from: Optional[Union[str, Checkpoint]] = None,
) -> RunRecorder:
    """Run a full federated experiment described by ``config``.

    The collector is built from ``config.training`` by
    :func:`~repro.fl.collector.make_collector` and closed (its fleet, if it
    spawned one, terminated) when the run ends or fails.

    Args:
        profiler: optional :class:`~repro.perf.profiler.RoundProfiler` shared
            by the server and the simulation — when given, every round's
            collect / attack / aggregate / update / evaluate stages are timed.
        fault_schedule: deterministic fault injection for the collect
            backend (see :mod:`repro.fl.faults`).
        checkpoint_every: snapshot the run to ``checkpoint_path`` every
            this many rounds (and after the final round); the two must be
            given together.
        checkpoint_path: where checkpoints are atomically written.
        resume_from: a checkpoint path or loaded
            :class:`~repro.fl.checkpoint.Checkpoint` to continue from.
            Everything structural is rebuilt from ``config`` (which must
            match the checkpoint's recorded config echo); the checkpoint
            restores the mutable state, and the run continues at the next
            round — bit-identical to never having stopped.
    """
    config = config.validate()
    checkpoint: Optional[Checkpoint] = None
    if resume_from is not None:
        checkpoint = (
            resume_from
            if isinstance(resume_from, Checkpoint)
            else load_checkpoint(resume_from)
        )
        if checkpoint.config is not None and checkpoint.config != config.to_dict():
            raise ValueError(
                "checkpoint was captured under a different experiment config; "
                "resuming would silently diverge — rebuild the config the "
                "checkpoint echoes (checkpoint.config) or start a fresh run"
            )
    rng_factory = RngFactory(config.seed)

    split = build_dataset(
        config.data.dataset,
        num_train=config.data.num_train,
        num_test=config.data.num_test,
        rng=rng_factory.make("data"),
    )
    partitions = partition_dataset(
        split.train,
        config.num_clients,
        scheme=config.data.partition,
        iid_fraction=config.data.iid_fraction,
        shards_per_client=config.data.shards_per_client,
        dirichlet_alpha=config.data.dirichlet_alpha,
        rng=rng_factory.make("partition"),
    )

    attack = build_attack(config.attack.name, config.attack.params)
    defense = build_aggregator(config.defense.name, config.defense.params)
    model = build_model(
        config.training.model, split.spec, rng=rng_factory.make("model")
    )
    # The model computes in the configured precision: with float32 the
    # clients' gradient computation itself (not just the round buffer) runs
    # at halved memory traffic.  Weights are drawn in float64 first (see
    # repro.nn.init) so both precisions start from the same values.
    model.astype(config.training.dtype)

    byzantine_indices = _select_byzantine(
        config.num_clients, config.num_byzantine, rng_factory.make("byzantine")
    )
    clients = build_clients(
        split.train,
        partitions,
        byzantine_indices,
        batch_size=config.training.batch_size,
        local_iterations=config.training.local_iterations,
        poison_labels=attack.poisons_data,
        rng_factory=rng_factory,
    )

    server = FederatedServer(
        model,
        defense,
        learning_rate=config.training.learning_rate,
        momentum=config.training.momentum,
        weight_decay=config.training.weight_decay,
        num_byzantine_hint=len(byzantine_indices),
        rng=rng_factory.make("server"),
        profiler=profiler,
    )

    participation = build_participation(
        config.training.participation,
        participation_fraction=config.training.participation_fraction,
        cohort_size=config.training.cohort_size,
        dropout_rate=config.training.dropout_rate,
        straggler_rate=config.training.straggler_rate,
        rng=rng_factory.make("participation"),
    )
    # A "process" collector spawns its worker fleet here; the finally
    # below closes it even when the simulation's own checks reject the
    # config.
    collector = make_collector(
        config, fault_schedule=fault_schedule, retry_seed=config.seed
    )
    try:
        simulation = FederatedSimulation(
            server,
            clients,
            attack,
            split.test,
            attack_rng=rng_factory.make("attack"),
            eval_every=config.training.eval_every,
            lr_decay=config.training.lr_decay,
            description=config.describe(),
            dtype=config.training.dtype,
            collector=collector,
            min_cohort_fraction=config.training.min_cohort_fraction,
            on_quorum_loss=config.training.on_quorum_loss,
            quorum_retries=config.training.quorum_retries,
            participation=participation,
            seed=config.seed,
            profiler=profiler,
        )
        start_round = 0
        if checkpoint is not None:
            start_round = simulation.restore_checkpoint(checkpoint)
        recorder = simulation.run(
            config.training.rounds,
            start_round=start_round,
            checkpoint_every=checkpoint_every,
            checkpoint_path=checkpoint_path,
            checkpoint_config=config.to_dict(),
        )
    finally:
        collector.close()
    recorder.metadata["config"] = config.to_dict()
    recorder.metadata["byzantine_indices"] = byzantine_indices.tolist()
    return recorder


def run_grid(
    base_config: ExperimentConfig,
    *,
    attacks: Iterable[str],
    defenses: Iterable[str],
    defense_params: Optional[Dict[str, dict]] = None,
    attack_params: Optional[Dict[str, dict]] = None,
) -> Dict[Tuple[str, str], RunRecorder]:
    """Run an attack × defense grid sharing one base configuration.

    Returns a dict keyed by ``(attack_name, defense_name)``; this is the
    shape of the paper's Table I.
    """
    defense_params = defense_params or {}
    attack_params = attack_params or {}
    results: Dict[Tuple[str, str], RunRecorder] = {}
    for attack_name in attacks:
        for defense_name in defenses:
            config = base_config.replace(
                attack=base_config.attack.__class__(
                    name=attack_name,
                    byzantine_fraction=base_config.attack.byzantine_fraction,
                    params=dict(attack_params.get(attack_name, {})),
                ),
                defense=base_config.defense.__class__(
                    name=defense_name,
                    params=dict(defense_params.get(defense_name, {})),
                ),
            )
            results[(attack_name, defense_name)] = run_experiment(config)
    return results
