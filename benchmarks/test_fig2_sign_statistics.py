"""Figure 2: sign statistics of honest vs LIE-crafted gradients over training.

The paper trains the global model under *no attack* and tracks, for every
iteration, the proportions of positive / zero / negative elements of (a) the
averaged honest gradient and (b) a virtual gradient crafted with the LIE rule
(Eq. 1).  The honest trace stays roughly balanced (positive slightly ahead),
while the crafted trace collapses towards the negative side — the empirical
basis of SignGuard's sign features.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import make_config
from repro.aggregators import MeanAggregator
from repro.analysis import SignStatisticsTrace
from repro.attacks import NoAttack
from repro.data import build_dataset, partition_dataset
from repro.fl.server import FederatedServer
from repro.fl import FederatedSimulation, build_clients
from repro.nn.models import build_model
from repro.utils.rng import RngFactory


class _TracingSimulation(FederatedSimulation):
    """A simulation that records the Fig. 2 sign statistics every round."""

    def __init__(self, *args, trace: SignStatisticsTrace, **kwargs):
        super().__init__(*args, **kwargs)
        self.trace = trace

    def _collect_honest_gradients(self, plan):
        collected = super()._collect_honest_gradients(plan)
        self.trace.record(collected[0])  # the active clients' gradients
        return collected


def run_fig2(profile) -> SignStatisticsTrace:
    config = make_config(profile, attack="no_attack", defense="mean")
    rng_factory = RngFactory(config.seed)
    split = build_dataset(
        config.data.dataset,
        num_train=config.data.num_train,
        num_test=config.data.num_test,
        rng=rng_factory.make("data"),
    )
    partitions = partition_dataset(
        split.train, config.num_clients, scheme="iid", rng=rng_factory.make("partition")
    )
    clients = build_clients(
        split.train,
        partitions,
        byzantine_indices=[],
        batch_size=config.training.batch_size,
        rng_factory=rng_factory,
    )
    model = build_model(
        config.training.model, split.spec, rng=rng_factory.make("model")
    )
    server = FederatedServer(
        model,
        MeanAggregator(),
        learning_rate=config.training.learning_rate,
        rng=rng_factory.make("server"),
    )
    trace = SignStatisticsTrace(z=0.3)
    simulation = _TracingSimulation(
        server,
        clients,
        NoAttack(),
        split.test,
        trace=trace,
        eval_every=config.training.eval_every,
    )
    simulation.run(config.training.rounds)
    return trace


@pytest.mark.benchmark(group="fig2")
def test_fig2_sign_statistics(benchmark, profile):
    trace = benchmark.pedantic(run_fig2, args=(profile,), rounds=1, iterations=1)
    summary = trace.summary()

    print("\n=== Fig. 2: mean sign statistics over training (z = 0.3) ===")
    print(f"{'trace':12s}{'positive':>12s}{'zero':>12s}{'negative':>12s}")
    for which in ("honest", "malicious"):
        print(
            f"{which:12s}"
            f"{summary[f'{which}_positive']:>12.3f}"
            f"{summary[f'{which}_zero']:>12.3f}"
            f"{summary[f'{which}_negative']:>12.3f}"
        )
    benchmark.extra_info.update(summary)

    # Paper shape: the LIE-crafted gradient has a visibly larger negative
    # fraction than the honest average, and the honest average leans positive.
    assert summary["malicious_negative"] > summary["honest_negative"]
    assert summary["honest_positive"] >= summary["honest_negative"] - 0.05
