"""Localhost fleet helpers: spawn ``repro-worker`` processes or threads.

Production federations run ``repro-worker`` on real hosts; the
``collect_backend="process"`` backend, tests, the benchmarks, and
``examples/distributed_collect.py`` need a fleet on this machine.  Two
flavours:

* :func:`spawn_local_fleet` — real ``repro-worker`` subprocesses (the
  exact entrypoint a deployment uses), each bound to an OS-assigned port
  scraped from its startup line, with BLAS threads pinned to its share of
  the cores.  This is what ``"process"`` runs on; use it directly to
  exercise true process isolation, or to kill a worker and watch the
  dropout semantics.  Each worker requires a random handshake key that
  only this process knows (recorded in
  :data:`~repro.fl.transport.protocol.WORKER_KEYS`), and exits
  when this process dies.
* :func:`start_thread_fleet` — in-process
  :class:`~repro.fl.transport.worker.WorkerServer` threads.  Cheaper and
  quieter; the wire protocol is identical (real TCP sockets over
  loopback), only the process boundary is missing.

Both return context-managed handles that tear the fleet down on exit.
"""

from __future__ import annotations

import os
import secrets
import selectors
import subprocess
import sys
import tempfile
import weakref
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.fl.faults import FaultSchedule
from repro.fl.transport.protocol import WORKER_KEYS
from repro.fl.transport.worker import KEY_ENV, PARENT_ENV, WorkerServer
from repro.perf.timers import monotonic


class WorkerProcess:
    """Handle on one spawned ``repro-worker`` subprocess."""

    def __init__(
        self,
        process: subprocess.Popen,
        address: str,
        stderr_file=None,
        key: Optional[str] = None,
    ):
        self.process = process
        self.address = address
        self._stderr_file = stderr_file
        #: The handshake key the worker requires (see :data:`KEY_ENV`).
        self.key = key

    @property
    def alive(self) -> bool:
        return self.process.poll() is None

    def stderr_tail(self, limit: int = 2000) -> str:
        """The last ``limit`` characters the worker wrote to stderr."""
        return _stderr_tail(self._stderr_file, limit)

    def _release(self) -> None:
        """Forget the worker's key; close its stderr file and stdout pipe.

        Idempotent.
        """
        if self.key is not None and WORKER_KEYS.get(self.address) == self.key:
            del WORKER_KEYS[self.address]  # unless a newer worker took it
        for handle in (self._stderr_file, self.process.stdout):
            if handle is not None:
                try:
                    handle.close()
                except OSError:  # pragma: no cover - defensive
                    pass
        self._stderr_file = None

    def kill(self) -> None:
        """Hard-kill the worker (simulates a host failure)."""
        self.process.kill()
        self.process.wait(timeout=10)
        self._release()

    def terminate(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=5)
            except subprocess.TimeoutExpired:  # pragma: no cover - defensive
                self.process.kill()
                self.process.wait(timeout=5)
        self._release()


def _terminate_workers(workers: List[WorkerProcess]) -> None:
    for worker in workers:
        worker.terminate()


class LocalFleet:
    """A context-managed set of localhost worker processes.

    The workers are terminated by :meth:`terminate`, or at the latest when
    the fleet is garbage-collected or the interpreter exits — a caller that
    raised before it could terminate the fleet leaves no worker serving.
    """

    def __init__(self, workers: List[WorkerProcess]):
        self.workers = workers
        self._finalizer = weakref.finalize(self, _terminate_workers, workers)

    @property
    def addresses(self) -> List[str]:
        return [worker.address for worker in self.workers]

    def terminate(self) -> None:
        self._finalizer()

    def __enter__(self) -> "LocalFleet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.terminate()


#: BLAS/OpenMP thread-count variables a fleet pins in its workers.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _worker_environment(blas_threads: Optional[int] = None) -> dict:
    """Subprocess environment with this interpreter's ``repro`` importable.

    The worker is told this process's PID (:data:`PARENT_ENV`) so it exits
    when this process dies.  ``blas_threads`` sets each of
    :data:`BLAS_THREAD_VARS` the caller's environment leaves unset, so
    co-located workers do not oversubscribe the cores with BLAS threads.
    """
    import repro

    env = dict(os.environ)
    package_root = str(Path(repro.__file__).resolve().parent.parent)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        package_root if not existing else os.pathsep.join([package_root, existing])
    )
    env[PARENT_ENV] = str(os.getpid())
    if blas_threads is not None:
        for name in BLAS_THREAD_VARS:
            env.setdefault(name, str(blas_threads))
    return env


def _stderr_tail(stderr_file, limit: int = 2000) -> str:
    """Last ``limit`` characters of a captured-stderr file (``""`` if none)."""
    if stderr_file is None:
        return ""
    try:
        stderr_file.seek(0)
        text = stderr_file.read()
    except (OSError, ValueError):  # pragma: no cover - defensive
        return ""
    return text[-limit:].strip()


def _launch_worker(
    host: str,
    port: int,
    extra_args: Sequence[str],
    allow_pickle_setup: bool,
    env: dict,
) -> WorkerProcess:
    """Start one ``repro-worker`` subprocess; its address is not known yet.

    The worker gets a fresh random handshake key through its environment.
    """
    key = secrets.token_hex(16)
    stderr_file = tempfile.TemporaryFile(mode="w+", prefix="repro-worker-stderr-")
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.fl.transport.worker",
            "--host",
            host,
            "--port",
            str(port),
            *(["--allow-pickle-setup"] if allow_pickle_setup else []),
            *extra_args,
        ],
        stdout=subprocess.PIPE,
        stderr=stderr_file,
        text=True,
        env={**env, KEY_ENV: key},
    )
    return WorkerProcess(process, "", stderr_file, key)


def _await_address(
    worker: WorkerProcess, deadline: float, startup_timeout: float, label: str
) -> WorkerProcess:
    """Scrape a launched worker's address, or kill it and raise.

    The ``RuntimeError`` names the worker (``label``), its exit code, and
    the tail of its captured stderr — the actual traceback, not just
    "failed to start".
    """
    process = worker.process
    line = _read_line_with_timeout(process, deadline - monotonic())
    if line is None or "listening on" not in line:
        process.kill()
        process.wait(timeout=10)
        returncode = process.poll()
        detail = (
            f"exited with code {returncode}"
            if returncode is not None
            else f"printed no address within {startup_timeout:.0f}s"
        )
        tail = worker.stderr_tail()
        worker._release()
        raise RuntimeError(
            f"{label} failed to start: {detail} (first stdout line: {line!r})"
            + (f"\n--- worker stderr ---\n{tail}" if tail else "")
        )
    worker.address = line.rsplit(" ", 1)[-1].strip()
    WORKER_KEYS[worker.address] = worker.key
    return worker


def spawn_worker_process(
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    extra_args: Sequence[str] = (),
    startup_timeout: float = 30.0,
    worker_index: Optional[int] = None,
    allow_pickle_setup: bool = True,
) -> WorkerProcess:
    """Spawn one ``repro-worker`` subprocess and scrape its address.

    Startup is bounded: if the worker exits or stays silent past
    ``startup_timeout``, it is killed and a ``RuntimeError`` names the
    worker (``worker_index``, when given), its exit code, and the tail of
    its captured stderr.  The worker requires a handshake key that only
    this process knows, and exits when this process dies, so a killed
    caller leaves no orphaned worker behind.

    ``allow_pickle_setup`` defaults to True (passing ``--allow-pickle-setup``
    to the subprocess): this helper spawns loopback workers for the caller
    itself, the trusted-operator case the CLI flag exists for.
    """
    label = "repro-worker" if worker_index is None else f"repro-worker {worker_index}"
    deadline = monotonic() + startup_timeout
    worker = _launch_worker(
        host, port, extra_args, allow_pickle_setup, _worker_environment()
    )
    return _await_address(worker, deadline, startup_timeout, label)


def _read_line_with_timeout(process: subprocess.Popen, timeout: float):
    """First stdout line of ``process``, or None if ``timeout`` expires.

    A plain ``readline()`` would block forever on a worker that wedges
    before printing its address; waiting for the pipe to become readable
    first keeps the deadline real.  Once data arrives, ``readline()`` is
    safe: the worker prints its address as a single flushed write.  A
    worker that dies during startup is noticed immediately (EOF makes the
    pipe readable), not at the deadline.
    """
    deadline = monotonic() + timeout
    selector = selectors.DefaultSelector()
    selector.register(process.stdout, selectors.EVENT_READ)
    try:
        while monotonic() < deadline:
            if selector.select(timeout=0.1):
                return process.stdout.readline() or None
            if process.poll() is not None:  # died without writing anything
                return process.stdout.readline() or None
    finally:
        selector.close()
    return None


def _fleet_schedule(
    n_workers: int, fault_schedule: Optional[FaultSchedule]
) -> FaultSchedule:
    """Validate a fleet size and the fleet-wide schedule that targets it."""
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    schedule = fault_schedule or FaultSchedule()
    for worker in schedule.worker_indices():
        if worker >= n_workers:
            raise ValueError(
                f"fault schedule targets worker {worker} but the fleet has "
                f"only {n_workers} workers"
            )
    return schedule


def spawn_local_fleet(
    n_workers: int,
    *,
    host: str = "127.0.0.1",
    extra_args: Sequence[str] = (),
    startup_timeout: float = 30.0,
    fault_schedule: Optional[FaultSchedule] = None,
) -> LocalFleet:
    """Spawn ``n_workers`` localhost ``repro-worker`` subprocesses.

    The workers start concurrently: every subprocess is launched first,
    then each one's address is scraped against its own
    ``startup_timeout`` deadline.  If any worker fails to start, every
    launched worker is torn down and the error names the failing one.

    Each worker's BLAS/OpenMP thread count
    (:data:`BLAS_THREAD_VARS`) is pinned to ``max(1, cpu_count //
    n_workers)`` unless the caller's environment already sets it: the
    workers share this host's cores, and unpinned BLAS pools would
    oversubscribe them.

    ``fault_schedule`` distributes a fleet-wide
    :class:`~repro.fl.faults.FaultSchedule` across the workers: each
    worker receives its own specs as ``--fault`` CLI arguments (worker
    *i*'s specs are re-keyed to the single-process worker's index 0).
    """
    schedule = _fleet_schedule(n_workers, fault_schedule)
    env = _worker_environment(max(1, (os.cpu_count() or 1) // n_workers))
    launched: List[Tuple[WorkerProcess, float]] = []
    try:
        for index in range(n_workers):
            args = list(extra_args) + schedule.for_worker(index).to_cli_args()
            deadline = monotonic() + startup_timeout
            launched.append((_launch_worker(host, 0, args, True, env), deadline))
        for index, (worker, deadline) in enumerate(launched):
            _await_address(
                worker, deadline, startup_timeout, f"repro-worker {index}"
            )
    except BaseException:
        for worker, _ in launched:
            worker.terminate()
        raise
    return LocalFleet([worker for worker, _ in launched])


class ThreadFleet:
    """A context-managed set of in-process worker servers."""

    def __init__(self, servers: List[WorkerServer]):
        self.servers = servers
        for server in servers:
            server.start_in_thread()

    @property
    def addresses(self) -> List[str]:
        return [server.address for server in self.servers]

    def terminate(self) -> None:
        for server in self.servers:
            server.close()

    def __enter__(self) -> "ThreadFleet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.terminate()


def start_thread_fleet(
    n_workers: int,
    *,
    fault_schedule: Optional[FaultSchedule] = None,
    **worker_kwargs,
) -> ThreadFleet:
    """Start ``n_workers`` in-process workers on OS-assigned loopback ports.

    ``fault_schedule`` is a fleet-wide
    :class:`~repro.fl.faults.FaultSchedule`: each server receives its own
    worker's specs (re-keyed to its local index 0).  Other
    :class:`WorkerServer` knobs in ``worker_kwargs`` apply to every
    worker.
    """
    schedule = _fleet_schedule(n_workers, fault_schedule)
    servers = [
        WorkerServer(fault_schedule=schedule.for_worker(index), **worker_kwargs)
        for index in range(n_workers)
    ]
    return ThreadFleet(servers)
