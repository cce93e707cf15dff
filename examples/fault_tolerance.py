#!/usr/bin/env python3
"""Fault-tolerant federation: chaos injection, quorum policies, and resume.

The runtime survives worker failure through a recovery ladder — retry the
connection, re-dispatch the lost shard to survivors, demote unrecoverable
clients to round-plan dropouts, and finally apply the configured quorum
policy (``accept`` / ``retry`` / ``abort``).  Independently, the runner
can snapshot the full simulation state every N rounds and resume a killed
run bit-identically.

This example demonstrates three properties, all on one machine:

1. **Chaos without divergence.**  A deterministic `FaultSchedule` crashes
   a thread-fleet worker mid-run; the collector re-dispatches the dead
   worker's clients to the survivors and the run stays *bit-identical*
   to a healthy sequential run — zero dropouts.
2. **Quorum policies.**  On a two-worker ``process`` fleet with
   re-dispatch switched off, a severed link degrades the round to
   dropouts; `min_cohort_fraction` decides whether the degraded round is
   accepted, retried, or aborts the run.
3. **Kill and resume.**  A run checkpointing every 2 rounds is killed by
   an unrecoverable outage; resuming from the snapshot reproduces the
   uninterrupted baseline exactly.

Run with:  python examples/fault_tolerance.py

The same faults work on real worker processes — a CLI ``crash`` fault
hard-exits the whole process mid-round::

    repro-worker --port 9000 --fault crash@3
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import (
    DataConfig,
    DefenseConfig,
    ExperimentConfig,
    TrainingConfig,
    run_experiment,
)
from repro.aggregators import build_aggregator
from repro.attacks import build_attack
from repro.data import build_dataset, partition_dataset
from repro.fl import (
    FaultSchedule,
    FederatedServer,
    FederatedSimulation,
    FleetOutageError,
    QuorumLossError,
    build_clients,
    make_collector,
)
from repro.fl.transport import start_thread_fleet
from repro.nn.models import build_model
from repro.utils.rng import RngFactory


def make_config(**training) -> ExperimentConfig:
    return ExperimentConfig(
        num_clients=16,
        seed=11,
        data=DataConfig(dataset="mnist_like", num_train=480, num_test=160),
        training=TrainingConfig(
            model="mlp", rounds=6, batch_size=16, eval_every=2, **training
        ),
        defense=DefenseConfig(name="signguard"),
    )


def losses(recorder) -> list:
    return [round(r.train_loss, 6) for r in recorder]


def chaos_with_redispatch() -> None:
    print("=== 1. Worker crash, shard re-dispatched, bit-identical run ===")
    baseline = run_experiment(make_config())

    # Worker 0 of the two-worker fleet dies on its 3rd round; the
    # collector re-ships its 8 clients (with their last completed RNG
    # states) to the survivor, so nothing is lost.
    chaos = FaultSchedule.from_args(["crash@3"], worker=0)
    with start_thread_fleet(2, fault_schedule=chaos) as fleet:
        config = make_config(collect_backend="distributed", workers=fleet.addresses)
        faulted = run_experiment(config)

    same = losses(faulted) == losses(baseline)
    print(f"  per-round losses identical to healthy sequential run: {same}")
    print(f"  rounds re-dispatched: {[r.num_redispatched for r in faulted]}")
    print(f"  dropouts:             {[r.num_dropped for r in faulted]}")
    assert same and all(r.num_dropped == 0 for r in faulted)


def quorum_simulation(on_quorum_loss: str) -> FederatedSimulation:
    """16 clients on a two-worker process fleet that never re-dispatches.

    The link to worker 1 (owning half the clients) is severed on the 3rd
    round.  With re-dispatch off nobody recomputes its clients, so they
    degrade to dropouts and the cohort falls to 50% — below the 75%
    quorum.  The policy decides the round's fate.
    """
    factory = RngFactory(11)
    split = build_dataset(
        "mnist_like", num_train=480, num_test=160, rng=factory.make("data")
    )
    partitions = partition_dataset(
        split.train, 16, scheme="iid", rng=factory.make("partition")
    )
    clients = build_clients(
        split.train, partitions, [], batch_size=16, rng_factory=factory
    )
    model = build_model("mlp", split.spec, rng=factory.make("model"))
    server = FederatedServer(
        model, build_aggregator("signguard", {}), rng=factory.make("server")
    )
    collector = make_collector(
        backend="process",
        n_workers=2,
        redispatch=False,
        fault_schedule=FaultSchedule.from_args(["crash@3"], worker=1),
    )
    return FederatedSimulation(
        server,
        clients,
        build_attack("no_attack", {}),
        split.test,
        collector=collector,
        min_cohort_fraction=0.75,
        on_quorum_loss=on_quorum_loss,
        seed=11,
    )


def quorum_policies() -> None:
    print("\n=== 2. Quorum policies on a degraded process fleet ===")

    def run_with_policy(on_quorum_loss: str):
        simulation = quorum_simulation(on_quorum_loss)
        try:
            return simulation.run(6)
        finally:
            simulation.close()

    accepted = run_with_policy("accept")
    degraded = [r.round_index for r in accepted if not r.quorum_met]
    print(f"  accept: run finished; degraded rounds: {degraded}")

    # A quorum retry re-collects the same plan; the one-shot fault is
    # already consumed, so the second attempt succeeds.
    retried = run_with_policy("retry")
    print(f"  retry:  per-round retries: {[r.num_retries for r in retried]}")
    assert all(r.quorum_met for r in retried)

    try:
        run_with_policy("abort")
    except QuorumLossError as error:
        print(f"  abort:  run stopped — {error}")


def kill_and_resume() -> None:
    print("\n=== 3. Kill a checkpointed run, resume bit-identically ===")
    baseline = run_experiment(make_config())

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.ckpt"
        # The sequential backend has no survivors to re-dispatch to, so a
        # crash is a fleet outage: the run dies mid-flight.
        outage = FaultSchedule.from_args(["crash@5"])
        try:
            run_experiment(
                make_config(),
                fault_schedule=outage,
                checkpoint_every=2,
                checkpoint_path=path,
            )
        except FleetOutageError:
            print("  run killed at round 5 (checkpoint holds rounds 1-4)")

        resumed = run_experiment(make_config(), resume_from=path)

    same = losses(resumed) == losses(baseline)
    print(f"  resumed run bit-identical to uninterrupted baseline: {same}")
    assert same


def main() -> None:
    chaos_with_redispatch()
    quorum_policies()
    kill_and_resume()
    print("\nAll fault-tolerance properties verified.")


if __name__ == "__main__":
    main()
