"""Driving one seeded experiment through ``repro.fl.run_experiment`` and timing it.

``FederatedSimulation.run_round`` is wrapped from outside.  Untraced, the
wrapper reads the clock twice per round and then copies the collector's
public counters; no ``RoundProfiler`` is passed, so the end-to-end numbers
carry no in-program tracing.  Traced, the wrapper also opens a ``round``
span and takes the tracer's per-round totals.

``FederatedServer.aggregate_and_update`` is wrapped to check that every
round's aggregate is finite and to record the selected share; it reads no
clock.
"""

from __future__ import annotations

import hashlib
import os
import resource
import signal
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional

import numpy as np
from tracer import Patches, Tracer
from workloads import FLEET_WORKERS


@dataclass
class RoundSample:
    index: int
    wall_s: float
    cohort: int
    failed_rows: int
    bytes_sent: int
    bytes_received: int
    reconnects: int
    redispatched: int
    worker_busy_s: List[float]
    selected_frac: float
    aggregate_finite: bool
    spans: Optional[Dict[str, list]] = None
    counts: Optional[Dict[str, int]] = None
    durations: Optional[Dict[str, List[float]]] = None


@dataclass
class Experiment:
    """What one ``run_experiment`` call produced, as seen from outside."""

    rounds_planned: int
    setup_s: float = float("nan")
    run_s: float = float("nan")
    rounds: List[RoundSample] = field(default_factory=list)
    digests: Dict[int, str] = field(default_factory=dict)
    setup_spans: Dict[str, list] = field(default_factory=dict)
    final_accuracy: Optional[float] = None
    honest_kept: List[float] = field(default_factory=list)
    malicious_kept: List[float] = field(default_factory=list)
    error: Optional[str] = None
    failed_rows: int = 0
    attempted_rows: int = 0
    worker_peak_kib: int = 0
    orphaned_workers: List[int] = field(default_factory=list)


def model_digest(model) -> str:
    """sha256 over the model's named parameters and buffers, in order."""
    digest = hashlib.sha256()
    for name, array in model.state_dict().items():
        digest.update(f"{name}:{array.dtype.str}:{array.shape};".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


class RoundProbe:
    """Patches the simulation and server from outside; one per process."""

    def __init__(self, tracer: Optional[Tracer] = None, digest_rounds: int = 0):
        self.tracer = tracer
        self.digest_rounds = digest_rounds
        self.current: Optional[Experiment] = None
        self.call_start = 0.0
        self._aggregate: Dict[str, Any] = {}
        self._patches = Patches()

    def install(self) -> None:
        from repro.fl.server import FederatedServer
        from repro.fl.simulation import FederatedSimulation

        self._patches.replace(FederatedSimulation, "run_round", self._wrap_round)
        self._patches.replace(
            FederatedServer, "aggregate_and_update", self._wrap_aggregate
        )

    def close(self) -> None:
        self._patches.close()

    def _wrap_aggregate(self, original):
        probe = self

        def aggregate_and_update(server, gradients, **kwargs):
            result = original(server, gradients, **kwargs)
            probe._aggregate = {
                "finite": bool(np.isfinite(result.gradient).all()),
                "selected_frac": len(result.selected_indices) / max(len(gradients), 1),
            }
            return result

        return aggregate_and_update

    def _wrap_round(self, original):
        probe = self
        tracer = self.tracer

        def run_round(simulation, round_index):
            experiment = probe.current
            if tracer is not None:
                pre, _, _ = tracer.take()  # spans since the last round ended
                tracer.enter("round")
            t0 = perf_counter()
            try:
                record = original(simulation, round_index)
            except BaseException:
                experiment.failed_rows += simulation.num_clients
                experiment.attempted_rows += simulation.num_clients
                raise
            finally:
                if tracer is not None:
                    tracer.exit()
            wall = perf_counter() - t0
            if round_index == 0:
                experiment.setup_s = t0 - probe.call_start
            probe._record(simulation, experiment, round_index, record, wall)
            if tracer is not None:
                if round_index == 0:
                    experiment.setup_spans = pre
                sample = experiment.rounds[-1]
                sample.spans, sample.counts, sample.durations = tracer.take()
            return record

        return run_round

    def _record(self, simulation, experiment, round_index, record, wall) -> None:
        collector = simulation.collector
        failed = len(collector.failed_rows)
        experiment.failed_rows += failed
        experiment.attempted_rows += record.cohort_size
        sent, received = collector.last_round_bytes
        experiment.rounds.append(
            RoundSample(
                index=round_index,
                wall_s=wall,
                cohort=record.cohort_size,
                failed_rows=failed,
                bytes_sent=int(sent),
                bytes_received=int(received),
                reconnects=int(collector.last_round_reconnects),
                redispatched=len(collector.last_round_redispatched),
                worker_busy_s=[float(t[1]) for t in collector.worker_timings],
                selected_frac=self._aggregate.get("selected_frac", float("nan")),
                aggregate_finite=self._aggregate.get("finite", False),
            )
        )
        self._aggregate = {}
        if record.benign_total:
            experiment.honest_kept.append(record.benign_selected / record.benign_total)
        if record.byzantine_total:
            experiment.malicious_kept.append(
                record.byzantine_selected / record.byzantine_total
            )
        last = round_index == experiment.rounds_planned - 1
        if round_index < self.digest_rounds or last:
            experiment.digests[round_index] = model_digest(simulation.model)
        if last:
            experiment.final_accuracy = record.test_accuracy

    def run(
        self, workload, seed: int, rounds: int, *, fleet: bool = False
    ) -> Experiment:
        """One ``run_experiment`` call (plus its fleet) timed from the call."""
        from repro.fl import run_experiment

        experiment = Experiment(rounds_planned=rounds)
        self.current = experiment
        local_fleet = None
        self.call_start = perf_counter()
        try:
            workers = None
            if fleet:
                from repro.fl.transport import spawn_local_fleet

                local_fleet = spawn_local_fleet(FLEET_WORKERS)
                workers = local_fleet.addresses
            config = workload.config(seed, rounds, workers)
            run_experiment(config)
        except Exception as exc:  # a raising round is reported, not fatal
            experiment.error = f"{type(exc).__name__}: {exc}"
            if not experiment.attempted_rows:  # failed before any round ran
                experiment.attempted_rows = experiment.failed_rows = (
                    workload.num_clients
                )
        finally:
            if local_fleet is not None:
                experiment.worker_peak_kib = sum(
                    _vm_hwm_kib(w.process.pid) for w in local_fleet.workers
                )
                local_fleet.terminate()
                experiment.orphaned_workers = _survivors(local_fleet.workers)
            experiment.run_s = perf_counter() - self.call_start
            self.current = None
        return experiment


def _vm_hwm_kib(pid: int) -> int:
    """A live process's peak resident set (``VmHWM``) in KiB, 0 if gone."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _survivors(workers) -> List[int]:
    """Worker pids still running after teardown; each is killed and reaped."""
    alive = []
    for worker in workers:
        process = worker.process
        if process.poll() is None:
            alive.append(process.pid)
            process.kill()
            process.wait(timeout=10)
    return alive


def leftover_workers() -> List[int]:
    """Pids of ``repro-worker`` children of this process that still exist."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                parent = int(stat.read().rsplit(")", 1)[1].split()[1])
            if parent != me:
                continue
            with open(f"/proc/{entry}/cmdline", "rb") as cmdline:
                if b"repro.fl.transport.worker" in cmdline.read():
                    found.append(int(entry))
        except (OSError, IndexError, ValueError):
            continue
    return found


def caller_peak_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def exit_on_sigterm() -> None:
    """Turn SIGTERM into SystemExit so ``finally`` blocks tear fleets down."""

    def handler(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, handler)
