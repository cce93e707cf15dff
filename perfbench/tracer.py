"""Spans around calls into each ``repro`` module, recorded from outside.

The traced run wraps public functions and methods of the program in this
process (``src/`` is never edited): each wrapper opens a span on entry and
closes it on exit.  Spans nest on one stack, so a span's *self time* is its
duration minus the time its child spans cover.  Totals are kept in memory
per name and taken once per round by the round probe.

``install_tracing`` returns a :class:`Patches` handle; closing it restores
every original attribute.
"""

from __future__ import annotations

import functools
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

#: Layer classes reported under their own name; every other ``repro`` module
#: class is folded into ``nn.other``.
NN_LAYERS = ("Conv2d", "MaxPool2d", "Linear", "ReLU")

#: Spans whose every duration is kept, for per-call percentiles.
KEPT_DURATIONS = ("client.compute_gradient",)


class Tracer:
    """A span stack with per-name totals ``[inclusive_s, self_s, calls]``."""

    def __init__(self):
        self._stack: List[list] = []
        self._depth: Dict[str, int] = {}
        self.totals: Dict[str, list] = {}
        self.counts: Dict[str, int] = {}
        self.durations: Dict[str, List[float]] = {n: [] for n in KEPT_DURATIONS}

    def enter(self, name: str) -> None:
        self._depth[name] = self._depth.get(name, 0) + 1
        self._stack.append([name, perf_counter(), 0.0])

    def exit(self) -> None:
        end = perf_counter()
        name, start, child = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        depth = self._depth[name] - 1
        self._depth[name] = depth
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0.0, 0.0, 0]
        if depth == 0:  # a recursive re-entry is already inside the outer span
            total[0] += duration
        total[1] += duration - child
        total[2] += 1
        if name in self.durations:
            self.durations[name].append(duration)

    def take(self) -> Tuple[Dict[str, list], Dict[str, int], Dict[str, List[float]]]:
        """Return and reset the totals, counts and kept durations."""
        taken = (self.totals, self.counts, self.durations)
        self.totals, self.counts = {}, {}
        self.durations = {name: [] for name in KEPT_DURATIONS}
        return taken


class Patches:
    """Attribute replacements on classes and modules, undone by ``close``."""

    def __init__(self):
        self._undo: List[Tuple[Any, str, Any, bool]] = []

    def replace(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original, own))

    def close(self) -> None:
        while self._undo:
            owner, attr, original, own = self._undo.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def _spanned(tracer: Tracer, name: str, fn: Callable) -> Callable:
    enter, leave = tracer.enter, tracer.exit

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            leave()

    return traced


def _counted(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        counts = tracer.counts
        counts[name] = counts.get(name, 0) + 1
        return fn(*args, **kwargs)

    return counted


def _subclasses(cls) -> List[type]:
    found, pending = [], [cls]
    while pending:
        for sub in pending.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                pending.append(sub)
    return found


def install_tracing(tracer: Tracer) -> Patches:
    """Wrap the program's module boundaries with spans and counters."""
    import repro.clustering.meanshift as meanshift
    import repro.core.filters as filters
    import repro.fl.client as client
    import repro.fl.experiment as experiment
    import repro.fl.simulation as simulation
    import repro.fl.transport.collector as transport_collector
    import repro.nn.layers as layers
    import repro.nn.models  # noqa: F401  (registers every model class)
    from repro.aggregators.base import Aggregator
    from repro.attacks.base import Attack
    from repro.clustering.meanshift import MeanShift
    from repro.core.filters import NormThresholdFilter, SignClusteringFilter
    from repro.data.dataloader import BatchLoader
    from repro.fl.client import FederatedClient
    from repro.fl.collector import GradientCollector
    from repro.fl.transport.codec import GradientCodec
    from repro.fl.transport.protocol import Channel
    from repro.nn.losses import CrossEntropyLoss
    from repro.nn.module import Module
    from repro.nn.optim import SGD

    patches = Patches()

    def span(owner, attr, name):
        patches.replace(owner, attr, lambda fn: _spanned(tracer, name, fn))

    def counted_span(owner, attr, name, counter):
        def make(fn):
            return _counted(tracer, counter, _spanned(tracer, name, fn))

        patches.replace(owner, attr, make)

    # repro.data: set-up (looked up by run_experiment) and batch sampling.
    span(experiment, "build_dataset", "data.build_dataset")
    span(experiment, "partition_dataset", "data.partition_dataset")
    counted_span(BatchLoader, "sample", "data.sample", "data.sample_calls")

    # repro.nn: forward/backward of every layer class, plus the helpers.
    for cls in _subclasses(Module):
        if not cls.__module__.startswith("repro."):
            continue
        label = cls.__name__ if cls.__name__ in NN_LAYERS else "other"
        for method in ("forward", "backward"):
            if method in vars(cls):
                span(cls, method, f"nn.{label}.{method}")
    span(layers, "im2col", "nn.im2col")
    span(layers, "col2im", "nn.col2im")
    span(CrossEntropyLoss, "forward", "nn.CrossEntropyLoss")
    span(CrossEntropyLoss, "backward", "nn.CrossEntropyLoss")
    span(client, "get_flat_gradients", "nn.get_flat_gradients")
    span(Module, "zero_grad", "nn.zero_grad")
    patches.replace(
        Module, "parameters", lambda fn: _counted(tracer, "nn.parameters_calls", fn)
    )
    patches.replace(
        Module, "__call__", lambda fn: _counted(tracer, "nn.module_calls", fn)
    )

    # repro.fl.client
    span(FederatedClient, "compute_gradient", "client.compute_gradient")

    # repro.fl.collector and repro.fl.transport
    for cls in [GradientCollector, *_subclasses(GradientCollector)]:
        if "collect" in vars(cls):
            span(cls, "collect", "collect.wall")
    span(transport_collector, "encode_state_dict", "transport.encode_state_dict")
    span(Channel, "recv_raw_into", "transport.decode")
    for cls in _subclasses(GradientCodec):
        if "decode" in vars(cls):
            span(cls, "decode", "transport.decode")

    # repro.attacks, repro.aggregators, repro.core, repro.clustering
    span(Attack, "apply", "attack.apply")
    span(Aggregator, "__call__", "defense.aggregate")
    span(filters, "extract_features", "core.extract_features")
    span(NormThresholdFilter, "apply", "core.NormThresholdFilter")
    span(SignClusteringFilter, "apply", "core.SignClusteringFilter")
    span(MeanShift, "fit", "clustering.meanshift_fit")
    span(meanshift, "estimate_bandwidth", "clustering.estimate_bandwidth")
    counted_span(
        meanshift,
        "pairwise_distances",
        "clustering.pairwise_distances",
        "clustering.pairwise_distances_calls",
    )

    # repro.fl.server / repro.nn.optim and repro.fl.metrics
    span(SGD, "apply_gradient_vector", "server.apply_gradient_vector")
    span(simulation, "evaluate_model", "eval.evaluate_model")
    return patches
