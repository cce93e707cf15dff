"""Deterministic fault injection and failure policy for the federation.

The runtime's resilience machinery (retry, shard re-dispatch, dropout
demotion, quorum policies — see ``README.md``'s "Fault tolerance" section)
needs faults it can rehearse *reproducibly*.  This module provides the one
fault-injection API every collect backend understands:

* :class:`FaultSpec` — one declarative fault: *kind* (``crash``,
  ``stall``, ``corrupt_frame``, ``refuse_connect``), the 1-based
  *occurrence* of the triggering event at the injection point, the target
  *worker* index, and (for stalls) a duration.
* :class:`FaultSchedule` — an immutable set of specs, buildable
  declaratively, from CLI ``KIND@ROUND[:SECONDS]`` strings (the
  ``repro-worker --fault`` flag), or drawn from a seeded generator
  (:meth:`FaultSchedule.random`) for chaos sweeps.

What "occurrence" counts depends on where the schedule is injected — the
point of the 1-based counter is that the trigger is a *local, observable
event*, so a schedule replays identically however the surrounding run is
scheduled:

* in a :class:`~repro.fl.transport.worker.WorkerServer`, ``crash`` /
  ``stall`` / ``corrupt_frame`` trigger on the worker's N-th lifetime
  ``ROUND`` request and ``refuse_connect`` on its N-th ``HELLO``;
* in an in-process :class:`~repro.fl.collector.GradientCollector` (and on
  the caller side of a :class:`~repro.fl.transport.collector.\
  DistributedCollector`, where a spec means "the link to worker *w*
  fails"), every kind triggers on the collector's N-th collect call.

Either way the faulted worker's clients never compute (their RNG streams
stay untouched), so a faulted round degrades into exactly the dropout /
re-dispatch semantics the simulation already knows how to keep
bit-reproducible.

The module also owns the round-failure policy vocabulary shared by
:class:`~repro.utils.config.TrainingConfig` and
:class:`~repro.fl.simulation.FederatedSimulation`: the
:data:`QUORUM_POLICIES` names and the :class:`FleetOutageError` /
:class:`QuorumLossError` exceptions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.utils.rng import RngLike, as_rng

#: Fault kinds understood by every injection point.
FAULT_KINDS = ("crash", "stall", "corrupt_frame", "refuse_connect")

#: ``TrainingConfig.on_quorum_loss`` policies: ``accept`` the small cohort
#: (record it and continue), ``retry`` the round with a fresh plan, or
#: ``abort`` the run.
QUORUM_POLICIES = ("accept", "retry", "abort")


class FleetOutageError(RuntimeError):
    """Every collect worker failed a round: no gradients were obtained.

    Raised by the simulation instead of demoting the whole cohort; under
    ``on_quorum_loss="retry"`` the round is re-planned and re-collected.
    """


class QuorumLossError(RuntimeError):
    """A round finished below ``min_cohort_fraction`` and policy said stop."""


@dataclass(frozen=True)
class FaultSpec:
    """One declarative fault.

    Args:
        kind: one of :data:`FAULT_KINDS`.
        round: 1-based occurrence of the triggering event at the
            injection point (see the module docstring for what each
            injection point counts).
        worker: index of the targeted worker within its fleet/collector.
        seconds: sleep duration for ``stall`` faults (ignored otherwise).
    """

    kind: str
    round: int
    worker: int = 0
    seconds: float = 3600.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"fault kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        if int(self.round) < 1:
            raise ValueError(f"fault round is 1-based, got {self.round}")
        if int(self.worker) < 0:
            raise ValueError(f"fault worker must be >= 0, got {self.worker}")
        if float(self.seconds) <= 0:
            raise ValueError(f"stall seconds must be > 0, got {self.seconds}")
        object.__setattr__(self, "round", int(self.round))
        object.__setattr__(self, "worker", int(self.worker))
        object.__setattr__(self, "seconds", float(self.seconds))

    def to_arg(self) -> str:
        """The ``KIND@ROUND[:SECONDS]`` form ``repro-worker --fault`` takes."""
        if self.kind == "stall":
            return f"{self.kind}@{self.round}:{self.seconds:g}"
        return f"{self.kind}@{self.round}"


def parse_fault(spec: str, *, worker: int = 0) -> FaultSpec:
    """Parse one ``KIND@ROUND[:SECONDS]`` CLI fault spec."""
    text = spec.strip()
    kind, separator, rest = text.partition("@")
    if not separator or not rest:
        raise ValueError(
            f"fault spec must look like KIND@ROUND[:SECONDS], got {spec!r}"
        )
    round_text, _, seconds_text = rest.partition(":")
    try:
        round_number = int(round_text)
    except ValueError as exc:
        raise ValueError(f"fault spec has a non-integer round: {spec!r}") from exc
    seconds = 3600.0
    if seconds_text:
        try:
            seconds = float(seconds_text)
        except ValueError as exc:
            raise ValueError(
                f"fault spec has non-numeric seconds: {spec!r}"
            ) from exc
    return FaultSpec(kind=kind, round=round_number, worker=worker, seconds=seconds)


class FaultSchedule:
    """An immutable, deterministic set of :class:`FaultSpec`.

    The schedule is declarative data — it never sleeps, crashes, or
    touches a socket itself; injection points query it
    (:meth:`fires` / :meth:`any_fires`) and act.
    """

    def __init__(self, specs: Iterable[FaultSpec] = ()) -> None:
        ordered = sorted(
            specs, key=lambda s: (s.worker, s.round, FAULT_KINDS.index(s.kind))
        )
        self.specs: Tuple[FaultSpec, ...] = tuple(ordered)

    # -- construction --------------------------------------------------------

    @classmethod
    def from_args(
        cls, args: Iterable[str], *, worker: int = 0
    ) -> "FaultSchedule":
        """Build a single-worker schedule from CLI ``--fault`` strings."""
        return cls(parse_fault(arg, worker=worker) for arg in args)

    @classmethod
    def random(
        cls,
        rounds: int,
        n_workers: int,
        *,
        rng: RngLike = None,
        crash_rate: float = 0.0,
        stall_rate: float = 0.0,
        corrupt_rate: float = 0.0,
        refuse_rate: float = 0.0,
        stall_seconds: float = 60.0,
    ) -> "FaultSchedule":
        """Draw a seeded chaos schedule: independent per-(round, worker) faults.

        Pass an integer ``rng`` seed (or a generator) for a reproducible
        sweep; identical seeds yield identical schedules.
        """
        if rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {rounds}")
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        rates = {
            "crash": float(crash_rate),
            "stall": float(stall_rate),
            "corrupt_frame": float(corrupt_rate),
            "refuse_connect": float(refuse_rate),
        }
        for kind, rate in rates.items():
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{kind} rate must be in [0, 1], got {rate}")
        generator = as_rng(rng)
        specs: List[FaultSpec] = []
        for round_number in range(1, rounds + 1):
            for worker in range(n_workers):
                # One draw per (round, worker, kind), in a fixed order, so
                # the schedule is a pure function of the seed and the rates.
                for kind in FAULT_KINDS:
                    draw = generator.random()
                    if draw < rates[kind]:
                        specs.append(
                            FaultSpec(
                                kind=kind,
                                round=round_number,
                                worker=worker,
                                seconds=stall_seconds,
                            )
                        )
        return cls(specs)

    # -- queries -------------------------------------------------------------

    def fires(
        self, kind: str, occurrence: int, worker: int = 0
    ) -> Optional[FaultSpec]:
        """The spec of ``kind`` firing at this occurrence/worker, if any."""
        if kind not in FAULT_KINDS:
            raise ValueError(
                f"fault kind must be one of {FAULT_KINDS}, got {kind!r}"
            )
        for spec in self.specs:
            if (
                spec.kind == kind
                and spec.round == occurrence
                and spec.worker == worker
            ):
                return spec
        return None

    def any_fires(self, occurrence: int, worker: int = 0) -> Optional[FaultSpec]:
        """The first spec of *any* kind firing at this occurrence/worker."""
        for spec in self.specs:
            if spec.round == occurrence and spec.worker == worker:
                return spec
        return None

    def for_worker(self, worker: int) -> "FaultSchedule":
        """This worker's slice, re-keyed to worker 0.

        A :class:`~repro.fl.transport.worker.WorkerServer` is a fleet of
        one, so fleet helpers hand each server
        ``schedule.for_worker(i)`` and the server queries worker 0.
        """
        return FaultSchedule(
            FaultSpec(
                kind=spec.kind, round=spec.round, worker=0, seconds=spec.seconds
            )
            for spec in self.specs
            if spec.worker == worker
        )

    def worker_indices(self) -> Tuple[int, ...]:
        """Sorted worker indices this schedule targets."""
        return tuple(sorted({spec.worker for spec in self.specs}))

    def to_cli_args(self) -> List[str]:
        """``["--fault", "KIND@ROUND", ...]`` for spawning one worker process.

        Only valid for single-worker schedules (use :meth:`for_worker`
        first); the CLI flag has no worker field because one
        ``repro-worker`` process *is* one worker.
        """
        indices = self.worker_indices()
        if indices not in ((), (0,)):
            raise ValueError(
                "to_cli_args() needs a single-worker schedule (worker 0); "
                f"this one targets workers {indices} — call for_worker() first"
            )
        args: List[str] = []
        for spec in self.specs:
            args.extend(["--fault", spec.to_arg()])
        return args

    # -- plumbing ------------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self) -> Iterator[FaultSpec]:
        return iter(self.specs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaultSchedule):
            return NotImplemented
        return self.specs == other.specs

    def __hash__(self) -> int:
        return hash(self.specs)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        inner = ", ".join(
            f"{spec.kind}@{spec.round}/w{spec.worker}" for spec in self.specs
        )
        return f"FaultSchedule([{inner}])"
