"""Gradient collection strategies for the federated round.

``collect_gradients`` dominates the round (client training is ~95% of a
paper-size round) and the clients are independent, so the collect stage is
a pluggable strategy with two implementations:

* :class:`SequentialCollector` — the seed behaviour: one client after the
  other against the shared global model, in this process.
* :class:`~repro.fl.transport.collector.DistributedCollector` (in
  :mod:`repro.fl.transport`) — the parallel path: a fleet of
  ``repro-worker`` servers each holding a shard of the client population,
  with a per-round state-dict broadcast and one raw-frame gather per
  worker.  It owns the recovery ladder (retry → re-dispatch → demote), the
  gradient wire codecs and the worker-side client RNG state that
  checkpoints capture.

Three backend names map onto them (:data:`COLLECT_BACKENDS`):
``"sequential"``; ``"process"``, which at ``n_workers >= 2`` spawns a local
fleet of ``n_workers`` ``repro-worker`` subprocesses
(:func:`~repro.fl.transport.fleet.spawn_local_fleet`) and drives it through
a ``DistributedCollector`` that terminates the fleet on :meth:`close`
(``n_workers <= 1`` stays sequential); and ``"distributed"``, which drives
the fleet named by ``workers=[host:port, ...]``.  Clients shipped to a
fleet are pickled by reference, so their classes must be importable (a
client class defined in a script's ``__main__`` runs on ``"sequential"``
only).

Determinism
-----------

The fleet path is **bit-identical** to the sequential path at float64 (and
at float32), regardless of scheduling, because

1. every client owns its batch-sampling RNG — a
   :class:`~repro.utils.rng.RngFactory` child stream seeded at construction
   time, *before* any dispatch — and is invoked exactly once per round, so
   its stream advances identically however work is interleaved;
2. worker replicas load parameter and buffer values verbatim from the
   global model's broadcast, so every client evaluates the same function
   on either path; and
3. layers with non-parameter state updated during the forward pass
   (BatchNorm running statistics) log their per-batch statistics on the
   replicas, and the collector replays those updates onto the *global*
   model in client order after the round — the same floating-point
   operations, in the same order, the sequential path performs.  Evaluation
   metrics therefore match exactly between the backends.

Models whose *forward pass itself* draws randomness from model-owned
generators (a ``Dropout`` layer holding its own RNG) cannot satisfy the
guarantee: the mask stream is consumed in client-visit order on the shared
sequential model but per-shard on each replica.  Rather than silently
diverging, the fleet path detects such models and raises ``ValueError`` —
run them with ``n_workers=1``.  (No built-in model uses Dropout in
federated rounds.)

Failure semantics
-----------------

Every backend NaN-fills the round buffer before dispatch.  The buffer is
preallocated and reused across rounds, so without invalidation a client
exception would leave it partially filled with the *previous* round's
gradients — a caller that catches the exception and keeps going would
silently aggregate stale rows.  With invalidation, rows the failed round
never produced are NaN and poison any downstream aggregate instead.

Partial participation
---------------------

``collect`` accepts an optional ``rows`` argument — a strictly increasing
subset of client positions (a :class:`~repro.fl.participation.RoundPlan`'s
computing set).  Only those clients run, row ``k`` of the (now
cohort-sized) buffer holds ``clients[rows[k]]``'s gradient, and BatchNorm
statistics are replayed in buffer-row order, which equals ascending client
order on both paths.  Non-selected clients are never invoked, so their
RNG streams stay untouched and any participation schedule remains
bit-reproducible.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.fl.client import FederatedClient
from repro.fl.faults import FaultSchedule
from repro.nn.layers import _BatchNormBase
from repro.nn.module import Module
from repro.perf.timers import monotonic
from repro.utils.registry import Registry

#: (worker_label, seconds, clients_processed) for one collect call.  The
#: label is ``0`` for the sequential pseudo-worker and the worker's
#: ``host:port`` address on the fleet path; consumers must treat it as an
#: opaque stage suffix, not an array index.
WorkerTiming = Tuple[Union[int, str], float, int]

#: Per-client batch-norm statistics: one ``[(mean, var), ...]`` list (one
#: entry per training forward) per batch-norm module, in module order.
ClientBatchStats = List[List[Tuple[np.ndarray, np.ndarray]]]


def invalidate_buffer(out: np.ndarray) -> None:
    """NaN-fill a round buffer so stale rows from a prior round cannot leak."""
    out.fill(np.nan)


def resolve_rows(
    clients: Sequence[FederatedClient],
    out: np.ndarray,
    rows: Optional[Sequence[int]],
) -> Optional[np.ndarray]:
    """Validate a ``collect`` row subset against the population and buffer.

    ``None`` (collect everyone) requires a population-sized buffer; an
    explicit subset must be strictly increasing (the fixed buffer-row order
    every backend shares), in range, and match the buffer's row count.
    """
    if rows is None:
        if out.shape[0] != len(clients):
            raise ValueError(
                f"round buffer has {out.shape[0]} rows but {len(clients)} "
                "clients were passed (pass rows= to collect a subset)"
            )
        return None
    subset = np.asarray(rows, dtype=int).ravel()
    if len(subset) == 0:
        raise ValueError("rows must select at least one client")
    if len(subset) > 1 and np.any(np.diff(subset) <= 0):
        raise ValueError(f"rows must be strictly increasing, got {subset}")
    if subset[0] < 0 or subset[-1] >= len(clients):
        raise ValueError(
            f"rows {subset} out of range for {len(clients)} clients"
        )
    if out.shape[0] != len(subset):
        raise ValueError(
            f"round buffer has {out.shape[0]} rows but {len(subset)} rows "
            "were selected"
        )
    return subset


def _batch_stat_modules(model: Module) -> List[_BatchNormBase]:
    """Sub-modules whose training forward updates running statistics."""
    return [m for m in model.modules() if isinstance(m, _BatchNormBase)]


def _replay_batch_stats(
    model: Module, stats_by_row: List[Tuple[int, ClientBatchStats]]
) -> None:
    """Replay recorded per-client batch statistics onto ``model``.

    Applies the exact exponential-moving-average updates the sequential path
    would have performed, in client order, so the global model's buffers are
    bit-identical between backends.
    """
    modules = _batch_stat_modules(model)
    for _, per_module in sorted(stats_by_row, key=lambda item: item[0]):
        for module, forwards in zip(modules, per_module):
            for mean, var in forwards:
                module.apply_batch_stats(mean, var)


def _collect_client(
    client: FederatedClient,
    model: Module,
    row_out: np.ndarray,
    stat_modules: List[_BatchNormBase],
) -> ClientBatchStats:
    """One client's gradient into ``row_out``, recording its batch stats."""
    for module in stat_modules:
        module.stats_log = []
    try:
        row_out[...] = client.compute_gradient(model)
        return [module.stats_log for module in stat_modules]
    finally:
        for module in stat_modules:
            module.stats_log = None


def _check_deterministic_forward(model: Module, backend: str) -> None:
    """Refuse models whose forward pass consumes a model-owned RNG."""
    stochastic = [
        type(module).__name__
        for module in model.modules()
        if any(
            isinstance(value, np.random.Generator) for value in vars(module).values()
        )
    ]
    if stochastic:
        raise ValueError(
            f"{backend} cannot guarantee sequential-equivalent results for "
            f"models with RNG-consuming layers ({stochastic}): the mask "
            "stream would be consumed per worker replica instead of in "
            "client order. Use n_workers=1 for this model."
        )


class GradientCollector:
    """Strategy interface: fill a preallocated ``(n_clients, dim)`` buffer.

    Subclasses implement :meth:`collect`; after it returns,
    :attr:`worker_timings` describes how the round's work was split across
    workers (a single pseudo-worker for the sequential strategy), which the
    simulation feeds into the round profiler as per-worker stages.
    """

    n_workers: int = 1

    #: Client ids the last ``collect`` failed to obtain gradients for —
    #: empty for the sequential backend (it raises on real errors) unless a
    #: :class:`~repro.fl.faults.FaultSchedule` injected a failure; the
    #: fleet path reports dead/timed-out workers' unrecovered rows here so
    #: the simulation can demote them to ``RoundPlan`` dropouts.
    failed_rows: Tuple[int, ...] = ()

    #: ``(bytes_sent, bytes_received)`` on the wire for the last
    #: ``collect`` — (0, 0) for the sequential backend.
    last_round_bytes: Tuple[int, int] = (0, 0)

    #: Client ids the last ``collect`` recovered by re-dispatching to
    #: surviving workers — only the fleet path ever recovers.
    last_round_redispatched: Tuple[int, ...] = ()

    #: Successful worker reconnects during the last ``collect``.
    last_round_reconnects: int = 0

    def __init__(self, *, fault_schedule: Optional[FaultSchedule] = None) -> None:
        self.worker_timings: List[WorkerTiming] = []
        #: Deterministic fault injection: a spec for worker ``w`` at
        #: occurrence ``r`` makes that worker's rows fail (uncomputed, RNG
        #: streams untouched) at this collector's ``r``-th main collect
        #: pass.  The sequential backend has no link to sever and nothing
        #: to re-dispatch from, so a fault of *any* kind on its single
        #: pseudo-worker 0 degrades straight to the demote rung.
        self.fault_schedule = fault_schedule or FaultSchedule()
        self._fault_rounds = 0

    def _advance_fault_round(self, apply_batch_stats: bool) -> int:
        """The fault-schedule clock: occurrences count main collect passes.

        A straggler pass (``apply_batch_stats=False``) belongs to the
        round that spawned it, so it reuses the current tick.
        """
        if apply_batch_stats:
            self._fault_rounds += 1
        return self._fault_rounds

    def client_rng_states(self) -> Dict[int, dict]:
        """Latest known per-client RNG states held *outside* the caller.

        The fleet path, whose client batch-sampler streams live in worker
        processes, reports them here so checkpoints capture the
        authoritative state; ``{}`` means the caller's client objects are
        authoritative (sequential).
        """
        return {}

    def codec_states(self) -> Dict[int, np.ndarray]:
        """Per-client wire-codec state (topk error-feedback residuals).

        Only the fleet path with a stateful wire codec has any; every
        other backend/codec combination reports ``{}``.  Captured in
        checkpoints next to the RNG states and restored via
        :meth:`load_codec_states`.
        """
        return {}

    def load_codec_states(self, states: Dict[int, np.ndarray]) -> None:
        """Adopt checkpointed wire-codec state (no-op without one)."""

    def collect(
        self,
        clients: Sequence[FederatedClient],
        model: Module,
        out: np.ndarray,
        rows: Optional[Sequence[int]] = None,
        *,
        apply_batch_stats: bool = True,
    ) -> np.ndarray:
        """Compute client gradients at ``model`` into ``out`` and return it.

        With ``rows=None`` every client computes and row ``i`` of ``out``
        holds client ``i``'s gradient.  With an explicit (strictly
        increasing) ``rows`` subset only those clients compute and row
        ``k`` holds ``clients[rows[k]]``'s gradient; the other clients are
        never invoked.

        ``apply_batch_stats=False`` leaves the global model's BatchNorm
        running statistics untouched by this call (client RNG streams still
        advance) — the straggler semantics: a discarded submission must not
        leak normalization state into the server model.
        """
        raise NotImplementedError

    def reset(self) -> None:
        """Forget worker-held copies of the clients and model.

        The next ``collect`` rebuilds them from the caller's objects — a
        checkpoint restore calls this after rewriting those objects.  The
        default is :meth:`close`, for collectors whose close is not final.
        """
        self.close()

    def close(self) -> None:
        """Release worker resources (idempotent)."""

    def __enter__(self) -> "GradientCollector":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SequentialCollector(GradientCollector):
    """The seed collect loop: every client runs against the shared model."""

    def collect(
        self,
        clients: Sequence[FederatedClient],
        model: Module,
        out: np.ndarray,
        rows: Optional[Sequence[int]] = None,
        *,
        apply_batch_stats: bool = True,
    ) -> np.ndarray:
        subset = resolve_rows(clients, out, rows)
        row_ids = range(len(clients)) if subset is None else subset
        self.failed_rows = ()
        invalidate_buffer(out)
        fault_round = self._advance_fault_round(apply_batch_stats)
        if self.fault_schedule.any_fires(fault_round):
            # The single pseudo-worker owns every row: a fault here is a
            # total outage.  Nothing computes, no RNG stream advances.
            self.failed_rows = tuple(int(row) for row in row_ids)
            self.worker_timings = [(0, 0.0, 0)]
            return out
        # apply_batch_stats=False restores the BatchNorm running statistics
        # afterwards (the training forward rebinds, never mutates, the
        # buffer arrays, so saving the references suffices): a straggler's
        # discarded submission must not leak state into the global model.
        saved_stats = (
            []
            if apply_batch_stats
            else [
                (module, module.running_mean, module.running_var)
                for module in _batch_stat_modules(model)
            ]
        )
        start = monotonic()
        try:
            for buffer_row, client_row in enumerate(row_ids):
                out[buffer_row] = clients[client_row].compute_gradient(model)
        finally:
            for module, running_mean, running_var in saved_stats:
                module.running_mean = running_mean
                module.running_var = running_var
        self.worker_timings = [(0, monotonic() - start, len(row_ids))]
        return out


#: Collect backend names accepted by :func:`build_collector` and
#: :class:`~repro.utils.config.TrainingConfig`.  Kept as an explicit tuple
#: (rather than derived from the registry) so error messages preserve the
#: documented order.
COLLECT_BACKENDS = ("sequential", "process", "distributed")

#: Backend name → factory taking the normalized collect options dict (see
#: :func:`build_collector`, which assembles it).  New backends register
#: here and become constructible through the same audited code path —
#: ``TrainingConfig(collect_backend=...)`` → :func:`make_collector` →
#: :func:`build_collector` → registry dispatch.
COLLECTOR_REGISTRY = Registry("collect backend")


@COLLECTOR_REGISTRY.register("sequential")
def _make_sequential_collector(options: Dict[str, Any]) -> GradientCollector:
    return SequentialCollector(fault_schedule=options["fault_schedule"])


@COLLECTOR_REGISTRY.register("distributed")
def _make_distributed_collector(options: Dict[str, Any]) -> GradientCollector:
    if not options["workers"]:
        raise ValueError(
            "collect_backend='distributed' requires workers=[host:port, ...]"
        )
    # Imported here: the transport subsystem pulls in socket machinery
    # that purely in-process runs never need.
    from repro.fl.transport.collector import DistributedCollector

    return DistributedCollector(
        options["workers"],
        connect_timeout=options["connect_timeout"],
        round_timeout=options["round_timeout"],
        fault_schedule=options["fault_schedule"],
        redispatch=options["redispatch"],
        retry_seed=options["retry_seed"],
        wire_codec=options["wire_codec"],
    )


@COLLECTOR_REGISTRY.register("process")
def _make_process_collector(options: Dict[str, Any]) -> GradientCollector:
    if options["n_workers"] <= 1:
        return _make_sequential_collector(options)
    from repro.fl.transport.fleet import spawn_local_fleet

    fleet = spawn_local_fleet(options["n_workers"])
    try:
        collector = _make_distributed_collector(
            {**options, "workers": fleet.addresses}
        )
    except BaseException:
        fleet.terminate()
        raise
    collector.fleet = fleet
    return collector


def build_collector(
    n_workers: int = 1,
    backend: str = "sequential",
    *,
    workers: Optional[Sequence[str]] = None,
    connect_timeout: float = 10.0,
    round_timeout: Optional[float] = 120.0,
    fault_schedule: Optional[FaultSchedule] = None,
    redispatch: bool = True,
    retry_seed: int = 0,
    wire_codec: str = "raw",
) -> GradientCollector:
    """Build the collect strategy for ``backend`` at ``n_workers``.

    ``"sequential"``, and ``"process"`` at ``n_workers <= 1``, give the
    :class:`SequentialCollector`.  ``"process"`` at ``n_workers >= 2``
    spawns a local fleet of ``n_workers`` ``repro-worker`` subprocesses
    and returns a
    :class:`~repro.fl.transport.collector.DistributedCollector` that owns
    it (``close()`` terminates the workers, as does garbage collection of
    the fleet).  The workers answer only this process — each requires a
    random handshake key that this process holds — and exit when this
    process dies, whichever thread spawned them.  ``"distributed"`` ignores
    ``n_workers`` and drives the fleet named by ``workers`` (``host:port``
    specs).

    ``connect_timeout``/``round_timeout``/``redispatch``/``retry_seed``/
    ``wire_codec`` shape the fleet path's recovery behaviour and wire
    format and are ignored by the sequential backend (which has no sockets
    to time out or frames to compress); ``fault_schedule`` injects
    deterministic faults into any backend — on the fleet path a spec
    severs the caller's link to worker *w*, and the recovery ladder
    (retry → re-dispatch → demote) takes over.

    Dispatch goes through :data:`COLLECTOR_REGISTRY`; prefer
    :func:`make_collector` when starting from a
    :class:`~repro.utils.config.TrainingConfig`.
    """
    if backend not in COLLECTOR_REGISTRY:
        # The error names the built-ins in documented order; third-party
        # backends registered in COLLECTOR_REGISTRY dispatch the same way.
        raise ValueError(
            f"collect backend must be one of {COLLECT_BACKENDS}, got {backend!r}"
        )
    if int(n_workers) < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    options: Dict[str, Any] = {
        "n_workers": int(n_workers),
        "workers": list(workers) if workers else None,
        "connect_timeout": connect_timeout,
        "round_timeout": round_timeout,
        "fault_schedule": fault_schedule,
        "redispatch": redispatch,
        "retry_seed": retry_seed,
        "wire_codec": wire_codec,
    }
    return COLLECTOR_REGISTRY.create(backend, options)


#: Sentinel for :func:`make_collector` overrides — ``None`` is a meaningful
#: value for several knobs (``round_timeout=None`` waits forever), so the
#: "not overridden" marker must be something else.
_UNSET: Any = object()


def make_collector(
    config: Any = None,
    *,
    backend: str = _UNSET,
    n_workers: int = _UNSET,
    workers: Optional[Sequence[str]] = _UNSET,
    connect_timeout: float = _UNSET,
    round_timeout: Optional[float] = _UNSET,
    wire_codec: str = _UNSET,
    fault_schedule: Optional[FaultSchedule] = None,
    redispatch: bool = True,
    retry_seed: int = 0,
) -> GradientCollector:
    """Build the collect strategy a config describes (the one public path).

    ``config`` is a :class:`~repro.utils.config.TrainingConfig`, an
    :class:`~repro.utils.config.ExperimentConfig` (its ``training`` is
    used), or ``None`` (defaults).  Keyword overrides take precedence over
    the config's fields — pass only what should differ.  Dispatches
    through :data:`COLLECTOR_REGISTRY`, so registered third-party backends
    construct through the same code path as the built-ins.
    """
    training = getattr(config, "training", config)

    def _field(override: Any, name: str, default: Any) -> Any:
        if override is not _UNSET:
            return override
        return getattr(training, name, default) if training is not None else default

    return build_collector(
        n_workers=_field(n_workers, "n_workers", 1),
        backend=_field(backend, "collect_backend", "sequential"),
        workers=_field(workers, "workers", None),
        connect_timeout=_field(connect_timeout, "connect_timeout", 10.0),
        round_timeout=_field(round_timeout, "round_timeout", 120.0),
        wire_codec=_field(wire_codec, "wire_codec", "raw"),
        fault_schedule=fault_schedule,
        redispatch=redispatch,
        retry_seed=retry_seed,
    )
