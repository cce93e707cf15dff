"""The benchmark's workloads: seeded SignGuard experiments at the paper's sizes.

Every workload runs SignGuard against a 20% Byzantine population in
float64 and evaluates every round, so all rounds do the same work.  Each
one is chosen to stress a different part of the round (the ``why`` of
each is in ``BENCHMARK.json``).

A run of a workload repeats one experiment for the run's ``--seconds``:

* identical experiments of ``rounds`` rounds each, started while the next
  one is expected to end within the time left (at least
  ``MIN_EXPERIMENTS``).  Each gives a set-up and a first-round sample.
  Round ``i`` does the same work in every repeat, so its best time over
  the repeats, which are spread across the whole run, is its time with
  the least interference from the shared host, whose speed drifts by up
  to ~50% over spells of seconds to minutes;
* with ``fleet_leg``, the same experiment for a few rounds over a local
  ``repro-worker`` fleet, inside the last ``FLEET_LEG_RESERVE_S`` of the
  run.  Its timings enter no end-to-end metric: with 2 OpenBLAS threads
  in each of 2 workers on 2 cores, one fleet round takes anywhere from
  0.6 s to 2 s, too unsteady to bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

#: Fewest repeats of the experiment in a run (per half of a traced run).
MIN_EXPERIMENTS = 3

#: Rounds of the fleet leg: the workload's experiment repeated over
#: ``FLEET_WORKERS`` ``repro-worker`` subprocesses and the raw wire.  Its
#: per-round model digests must equal the sequential run's (backend
#: bit-identity); traced runs take the collector and transport rows from it.
FLEET_LEG_ROUNDS = 4

#: Seconds at the end of a run kept for the fleet leg (spawn, 4 rounds,
#: teardown take 6-10 s on a 2-core host).
FLEET_LEG_RESERVE_S = 10.0

#: Worker subprocesses of the fleet leg: the host's 2 cores.
FLEET_WORKERS = 2

BYZANTINE_FRACTION = 0.2


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    model: str
    attack: str
    num_clients: int
    num_train: int
    batch_size: int
    learning_rate: float
    rounds: int
    fleet_leg: bool = False

    def config(self, seed: int, rounds: int, workers: Optional[List[str]] = None):
        """The ``ExperimentConfig`` this workload hands to ``run_experiment``."""
        from repro import (
            AttackConfig,
            DataConfig,
            DefenseConfig,
            ExperimentConfig,
            TrainingConfig,
        )

        training = TrainingConfig(
            model=self.model,
            rounds=rounds,
            batch_size=self.batch_size,
            learning_rate=self.learning_rate,
            eval_every=1,
            dtype="float64",
            collect_backend="distributed" if workers else "sequential",
            workers=list(workers) if workers else None,
            wire_codec="raw",
        )
        return ExperimentConfig(
            num_clients=self.num_clients,
            seed=seed,
            data=DataConfig(dataset=self.dataset, num_train=self.num_train),
            training=training,
            attack=AttackConfig(
                name=self.attack, byzantine_fraction=BYZANTINE_FRACTION
            ),
            defense=DefenseConfig(name="signguard"),
        ).validate()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cnn50_seq",
            dataset="mnist_like",
            model="simple_cnn",
            attack="byzmean",
            num_clients=50,
            num_train=2000,
            batch_size=32,
            learning_rate=0.05,
            rounds=7,
            fleet_leg=True,
        ),
        Workload(
            name="logreg2000_lie",
            dataset="mnist_like",
            model="logistic",
            attack="lie",
            num_clients=2000,
            num_train=32000,
            batch_size=16,
            learning_rate=0.1,
            rounds=6,
        ),
    )
}
