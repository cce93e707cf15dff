"""The ``repro-worker`` server: serves one client-population shard over TCP.

A worker owns a chunk of the federation's client population (shipped once
at setup, together with a model replica) and then serves rounds: each
``ROUND`` message carries the global model's encoded ``state_dict()`` and
the sorted global client ids to compute this round; the worker loads the
state, runs its clients one after another *exactly as the sequential
backend does* (so per-client RNG streams and BatchNorm statistics behave
identically), and streams the gradient shard back as
one raw frame followed by a trailer with losses, recorded batch
statistics, post-round RNG states, and timing.

The worker process is deliberately dumb and stateless across connections
apart from its shard: a caller that disconnects (cleanly or by crashing)
does not lose the shard — the next connection's handshake sees
``has_shard=True`` and skips setup, resuming the clients' RNG streams
where they stopped.  The flip side is intentional: while a shard is held,
the handshake refuses callers announcing a *different* model signature
(the acceptance contract — a broadcast can never load into a
differently-shaped model), so repurposing a standing fleet for a new
model architecture means restarting the workers.  Same-architecture
callers are admitted and can ``RESET`` + re-``SETUP`` the shard.

Run it from the console script installed with the package::

    repro-worker --port 9000

or, equivalently, ``python -m repro.fl.transport.worker --port 9000``.
With ``--port 0`` the OS picks a free port; the worker always prints a
``repro-worker listening on HOST:PORT`` line (flushed) so fleet tooling
can scrape the address.

Security note: after the handshake, ``SETUP`` bodies are unpickled — the
same trust model as Python's own ``multiprocessing``.  The unpickle path
is therefore **gated**: the ``repro-worker`` CLI refuses ``SETUP`` unless
started with ``--allow-pickle-setup``, because a CLI worker may be bound
to a non-loopback interface where any peer that can complete the
handshake could submit a pickle.  The in-process and local-subprocess
fleet helpers (:func:`~repro.fl.transport.fleet.start_thread_fleet`,
:func:`~repro.fl.transport.fleet.spawn_local_fleet`) enable the gate —
they only ever talk to themselves over loopback.  A subprocess they spawn
also receives a random handshake key through its environment
(:data:`KEY_ENV`) and refuses any HELLO that does not carry it, so other
processes on the host cannot reach its SETUP path through the loopback
port.  The handshake's magic/version/signature checks guard against
accidents, not adversaries; the state-dict broadcasts and gradient shards
themselves are pickle-free.

A spawned worker also watches its spawner: with :data:`PARENT_ENV` set
to the spawner's PID, the worker exits once that process is no longer its
parent, so a caller that is killed leaves no worker serving.

Fault injection: ``--fault KIND@ROUND[:SECONDS]`` (repeatable) attaches a
:class:`~repro.fl.faults.FaultSchedule` to the worker — the one
fault-injection API shared with every collect backend.  ``crash``
hard-exits the process upon *receiving* its N-th lifetime ``ROUND``
request (from the caller's side, a worker that died mid-round);
``stall`` sleeps SECONDS through it instead (a worker that times out);
``corrupt_frame`` answers it with a torn gradient frame (a worker whose
reply the framing layer rejects); ``refuse_connect`` silently drops the
N-th *connection attempt* (``HELLO``) — the failure the caller's
connect-retry policy exists to ride out.
"""

from __future__ import annotations

import argparse
import os
import pickle
import socket
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.fl.client import FederatedClient
from repro.fl.collector import _batch_stat_modules, _collect_client
from repro.fl.faults import FaultSchedule
from repro.fl.transport.codec import (
    MSG_BYE,
    MSG_ERROR,
    MSG_HELLO,
    MSG_PING,
    MSG_PONG,
    MSG_READY,
    MSG_RESET,
    MSG_ROUND,
    MSG_SETUP,
    MSG_SHARD,
    MSG_STATE,
    MSG_TRAILER,
    MSG_WELCOME,
    CodecError,
    GradientCodec,
    RawCodec,
    build_codec,
    decode_state_dict,
    model_signature,
    wire_codec_names,
)
from repro.fl.transport.framing import DEFAULT_MAX_FRAME_BYTES, FrameError
from repro.fl.transport.protocol import PROTOCOL_VERSION, Channel, check_hello
from repro.nn.module import Module
from repro.perf.timers import monotonic
from repro.utils.serialization import arrays_to_blob

#: Environment variable carrying a spawned worker's handshake key.
KEY_ENV = "REPRO_WORKER_KEY"

#: Environment variable carrying the PID of a spawned worker's spawner.
PARENT_ENV = "REPRO_WORKER_PARENT"

#: Seconds between a spawned worker's checks that its spawner is alive.
PARENT_POLL_S = 0.5


class WorkerServer:
    """Serve a client-population shard for a distributed collect fleet.

    Args:
        host: interface to bind (default loopback — a localhost fleet).
        port: TCP port; 0 lets the OS choose (see :attr:`address`).
        max_frame_bytes: per-frame receive ceiling (oversized frames are
            refused before any allocation).
        fault_schedule: deterministic fault injection (see
            :mod:`repro.fl.faults`).  ``crash``/``stall``/``corrupt_frame``
            specs trigger on this worker's N-th lifetime ``ROUND`` request,
            ``refuse_connect`` on its N-th ``HELLO``.  A server is a fleet
            of one, so the schedule must target worker 0
            (:meth:`~repro.fl.faults.FaultSchedule.for_worker`).
        hard_crash: when True, ``crash`` faults ``os._exit`` the whole
            process (the CLI behaviour — real host death); when False (the
            in-process default), they close the listener and drop the
            connection, so a thread-fleet test's interpreter survives but
            callers observe the same dead worker.
        supported_codecs: gradient wire codecs this worker will serve
            (``None`` = every registered codec).  A caller announcing a
            codec outside the set is refused during the handshake with an
            error naming both sides' expectations.
        allow_pickle_setup: whether ``SETUP``/merge bodies (which are
            pickled) are accepted.  Defaults to True for programmatic use
            — in-process and local fleets only talk to themselves — but
            the ``repro-worker`` CLI defaults it to **False** so a worker
            reachable from elsewhere never unpickles an unexpected
            caller's payload unless the operator passed
            ``--allow-pickle-setup``.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        fault_schedule: Optional[FaultSchedule] = None,
        hard_crash: bool = False,
        supported_codecs: Optional[Tuple[str, ...]] = None,
        allow_pickle_setup: bool = True,
    ):
        self.max_frame_bytes = int(max_frame_bytes)
        self.allow_pickle_setup = bool(allow_pickle_setup)
        self.supported_codecs = (
            tuple(supported_codecs)
            if supported_codecs is not None
            else wire_codec_names()
        )
        self.fault_schedule = fault_schedule or FaultSchedule()
        indices = self.fault_schedule.worker_indices()
        if indices not in ((), (0,)):
            raise ValueError(
                "a WorkerServer is a single worker; its fault schedule must "
                f"target worker 0, got workers {indices} — call "
                "FaultSchedule.for_worker() first"
            )
        self.hard_crash = bool(hard_crash)
        self._listener = socket.create_server((host, port))
        self.host, self.port = self._listener.getsockname()[:2]
        self._closed = False
        # The shard: installed by the first SETUP, kept across connections.
        self._model: Optional[Module] = None
        self._clients: Dict[int, FederatedClient] = {}
        self._signature: Optional[str] = None
        # Wire-codec instances, one per negotiated codec name, kept across
        # connections alongside the shard: a stateful codec's per-client
        # residuals must survive a caller reconnect exactly like the
        # clients' RNG streams do.
        self._codecs: Dict[str, GradientCodec] = {}
        self._rounds_received = 0
        self._hellos_received = 0
        #: Handshake key every HELLO must carry (``None``: none required).
        #: :func:`main` takes it from :data:`KEY_ENV`.
        self.auth_key: Optional[str] = None

    @property
    def address(self) -> str:
        """The ``host:port`` string callers pass as a worker spec."""
        return f"{self.host}:{self.port}"

    @property
    def has_shard(self) -> bool:
        return self._model is not None

    # -- serving -------------------------------------------------------------

    def serve_forever(self) -> None:
        """Accept and serve connections (one at a time) until :meth:`close`."""
        while not self._closed:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            # Replies are several small writes around one large one; without
            # NODELAY, Nagle + the peer's delayed ACK can stall each reply
            # by tens of ms on non-loopback networks.
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            channel = Channel(conn, max_frame_bytes=self.max_frame_bytes)
            try:
                self._serve_connection(channel)
            except (FrameError, CodecError, ConnectionError, OSError):
                pass  # caller vanished or spoke garbage; await the next one
            except Exception as exc:
                # A worker must outlive any single bad connection; refuse
                # and await the next caller.
                self._refuse(channel, f"worker error: {exc!r}")
            finally:
                channel.close()

    def start_in_thread(self) -> threading.Thread:
        """Serve from a daemon thread (in-process localhost fleets)."""
        thread = threading.Thread(
            target=self.serve_forever, name=f"repro-worker-{self.port}", daemon=True
        )
        thread.start()
        return thread

    def close(self) -> None:
        self._closed = True
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - defensive
            pass

    # -- connection handling -------------------------------------------------

    def _refuse(self, channel: Channel, reason: str) -> None:
        try:
            channel.send(MSG_ERROR, {"error": reason})
        except OSError:  # pragma: no cover - peer already gone
            pass

    def _serve_connection(self, channel: Channel) -> None:
        msg_type, header, _ = channel.recv()
        if msg_type != MSG_HELLO:
            self._refuse(channel, "handshake must start with HELLO")
            return
        self._hellos_received += 1
        if self.fault_schedule.fires("refuse_connect", self._hellos_received):
            # Fault injection: hang up without a word.  The caller sees a
            # connection closed mid-handshake — the transient failure its
            # connect-retry policy is built for (a real HandshakeError,
            # being an explicit refusal, is deliberately NOT retried).
            return
        refusal = check_hello(header, self.supported_codecs, self.auth_key)
        claimed_signature = header.get("model_signature")
        if refusal is None and self.has_shard and claimed_signature != self._signature:
            refusal = (
                f"model signature mismatch: worker holds {self._signature}, "
                f"caller announced {claimed_signature}"
            )
        if refusal is not None:
            self._refuse(channel, refusal)
            return
        wire_codec = header.get("wire_codec", "raw")
        channel.send(
            MSG_WELCOME,
            {
                "protocol": PROTOCOL_VERSION,
                "has_shard": self.has_shard,
                "num_clients": len(self._clients),
                "wire_codec": wire_codec,
                # Additive field (no version bump per the codec-module bump
                # rules): old callers ignore it, new callers can fail fast
                # instead of shipping a SETUP the worker will refuse.
                "accepts_pickle_setup": self.allow_pickle_setup,
            },
        )
        while True:
            msg_type, header, body = channel.recv()
            if msg_type == MSG_BYE:
                return
            if msg_type == MSG_PING:
                channel.send(MSG_PONG, {"has_shard": self.has_shard})
            elif msg_type == MSG_STATE:
                codec = self._codec(wire_codec)
                channel.send(
                    MSG_STATE,
                    {"wire_codec": codec.name, "stateful": codec.stateful},
                    arrays_to_blob(
                        {
                            str(client_id): residual
                            for client_id, residual in codec.state_dict().items()
                        }
                    ),
                )
            elif msg_type == MSG_RESET:
                # The caller disowns whatever shard this worker holds — a new
                # setup (usually with resumed RNG + codec states) follows.
                self._model = None
                self._clients = {}
                self._signature = None
                self._codecs = {}
                channel.send(MSG_READY, {"num_clients": 0})
            elif msg_type == MSG_SETUP:
                if header.get("merge"):
                    if not self._handle_merge(channel, wire_codec, body):
                        return
                elif not self._handle_setup(
                    channel, claimed_signature, wire_codec, body
                ):
                    return
            elif msg_type == MSG_ROUND:
                self._handle_round(channel, header, body, wire_codec)
            else:
                self._refuse(channel, f"unexpected message type {msg_type}")
                return

    def _codec(self, name: str) -> GradientCodec:
        """The (cached) codec instance negotiated under ``name``."""
        codec = self._codecs.get(name)
        if codec is None:
            codec = self._codecs[name] = build_codec(name)
        return codec

    def _refuse_pickle_setup(self, channel: Channel) -> None:
        self._refuse(
            channel,
            "this worker refuses pickled SETUP payloads (started without "
            "--allow-pickle-setup); restart it with the flag if you trust "
            "every caller that can reach it",
        )

    def _handle_setup(
        self, channel: Channel, claimed_signature: str, wire_codec: str, body: bytes
    ) -> bool:
        if not self.allow_pickle_setup:
            self._refuse_pickle_setup(channel)
            return False
        try:
            model, client_ids, clients, rng_states, codec_states = pickle.loads(body)
        except Exception as exc:
            # Most often a caller-local client class this process cannot
            # import; the shard is refused but the worker keeps serving.
            self._refuse(channel, f"SETUP payload failed to unpickle: {exc!r}")
            return False
        signature = model_signature(model)
        if signature != claimed_signature:
            self._refuse(
                channel,
                f"SETUP model signature {signature} does not match the "
                f"HELLO-announced {claimed_signature}",
            )
            return False
        if rng_states:
            # A resumed shard: fast-forward each client's sampling stream to
            # where it stood when this worker's predecessor last reported.
            for client_id, state in rng_states.items():
                clients[client_ids.index(client_id)].loader.rng_state = state
        self._model = model
        self._clients = dict(zip(client_ids, clients))
        self._signature = signature
        if codec_states:
            # A resumed shard also resumes the wire codec's per-client state
            # (topk error-feedback residuals) at the checkpointed values.
            self._codec(wire_codec).load_state_dict(codec_states)
        channel.send(MSG_READY, {"num_clients": len(clients)})
        return True

    def _handle_merge(self, channel: Channel, wire_codec: str, body: bytes) -> bool:
        """Merge re-dispatched clients into the held shard (no model ships)."""
        if not self.allow_pickle_setup:
            self._refuse_pickle_setup(channel)
            return False
        if self._model is None:
            self._refuse(channel, "merge SETUP requires an existing shard")
            return False
        try:
            _, client_ids, clients, rng_states, codec_states = pickle.loads(body)
        except Exception as exc:
            self._refuse(channel, f"SETUP payload failed to unpickle: {exc!r}")
            return False
        if rng_states:
            # Re-dispatched clients resume their sampling streams at their
            # last *completed* round — the dead worker never reported this
            # round's advance, so recomputing here is bit-identical.
            for client_id, state in rng_states.items():
                clients[client_ids.index(client_id)].loader.rng_state = state
        self._clients.update(zip(client_ids, clients))
        if codec_states:
            # Merge (not replace): this worker keeps the residuals of the
            # clients it already held and adopts the re-dispatched ones'
            # last-known residuals from the caller's cache.
            codec = self._codec(wire_codec)
            codec.load_state_dict({**codec.state_dict(), **codec_states})
        channel.send(MSG_READY, {"num_clients": len(self._clients)})
        return True

    def _handle_round(
        self, channel: Channel, header: dict, body: bytes, wire_codec: str
    ) -> None:
        self._rounds_received += 1
        if self.fault_schedule.fires("crash", self._rounds_received):
            if self.hard_crash:
                os._exit(17)  # fault injection: die without replying
            # In-process flavour: stop listening and hang up.  Callers see
            # exactly what a dead process shows them — a connection that
            # drops mid-round and a port that then refuses.
            self.close()
            raise ConnectionAbortedError("fault injection: crash")
        stall = self.fault_schedule.fires("stall", self._rounds_received)
        if stall is not None:
            time.sleep(stall.seconds)  # fault injection: miss the deadline
        if self.fault_schedule.fires("corrupt_frame", self._rounds_received):
            # Fault injection: announce the shard, then tear the gradient
            # frame.  Nothing was computed — client RNG streams are
            # untouched, so a re-dispatched recomputation stays bit-exact.
            rows = [int(row) for row in header["rows"]]
            dtype = np.dtype(header["dtype"])
            nbytes = len(rows) * int(header["dim"]) * dtype.itemsize
            channel.send(MSG_SHARD, {"rows": len(rows), "nbytes": nbytes})
            channel.send_raw(b"\x00" * min(8, max(nbytes - 1, 0)))
            raise ConnectionAbortedError("fault injection: corrupt frame")
        if self._model is None:
            self._refuse(channel, "ROUND before SETUP: worker holds no shard")
            return
        rows = [int(row) for row in header["rows"]]
        dtype = np.dtype(header["dtype"])
        dim = int(header["dim"])
        if dim != self._model.num_parameters():
            self._refuse(
                channel,
                f"round dim {dim} does not match the shard model's "
                f"{self._model.num_parameters()} parameters",
            )
            return
        unknown = [row for row in rows if row not in self._clients]
        if unknown:
            self._refuse(channel, f"rows {unknown} are not in this worker's shard")
            return
        self._model.load_state_dict(decode_state_dict(body))
        shard = np.full((len(rows), dim), np.nan, dtype=dtype)
        stat_modules = _batch_stat_modules(self._model)
        start = monotonic()
        count = 0
        losses: List[Tuple[int, float]] = []
        stats: List[Tuple[int, list]] = []
        error: Optional[BaseException] = None
        for position, row in enumerate(rows):
            client = self._clients[row]
            try:
                client_stats = _collect_client(
                    client, self._model, shard[position], stat_modules
                )
            except BaseException as exc:  # propagate to the caller
                error = exc
                break
            count += 1
            losses.append((row, client.last_loss))
            stats.append((row, client_stats))
        seconds = monotonic() - start
        if error is not None:
            try:
                pickle.dumps(error)
            except Exception:
                error = RuntimeError(
                    f"unpicklable client exception on worker {self.address}: "
                    f"{error!r}"
                )
        rng_states = {row: self._clients[row].loader.rng_state for row, _ in losses}
        codec = self._codec(wire_codec)
        if isinstance(codec, RawCodec):
            # Fast path, byte-identical to the pre-codec protocol: the SHARD
            # header carries no codec key and the frame is the shard's bytes.
            channel.send(MSG_SHARD, {"rows": len(rows), "nbytes": shard.nbytes})
            channel.send_raw(shard.tobytes())
        else:
            if error is not None:
                # Rows past the failing client are still NaN; the caller
                # raises the error without aggregating, but a lossy codec
                # (rightly) refuses non-finite input — neutralise it.
                np.nan_to_num(shard, copy=False, nan=0.0, posinf=0.0, neginf=0.0)
            payload = codec.encode(shard, rows)
            channel.send(
                MSG_SHARD,
                {"rows": len(rows), "nbytes": len(payload), "codec": codec.name},
            )
            channel.send_raw(payload)
        channel.send(
            MSG_TRAILER,
            {},
            pickle.dumps(
                {
                    "losses": losses,
                    "stats": stats,
                    "rng_states": rng_states,
                    "seconds": seconds,
                    "count": count,
                    "error": error,
                }
            ),
        )


def _exit_with_parent(parent_pid: int) -> None:
    """Exit this process once ``parent_pid`` is no longer its parent.

    Polls ``os.getppid()`` from a daemon thread: when the spawner dies the
    worker is re-parented and exits within :data:`PARENT_POLL_S`.  The
    check follows the spawning *process*, so a spawner thread that exits
    while its process lives on does not end the fleet.
    """

    def watch() -> None:
        while os.getppid() == parent_pid:
            time.sleep(PARENT_POLL_S)
        os._exit(1)

    threading.Thread(target=watch, name="repro-worker-parent", daemon=True).start()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-worker",
        description=(
            "Serve a client-population shard for distributed gradient "
            "collection (TrainingConfig(collect_backend='distributed'))."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1", help="interface to bind")
    parser.add_argument(
        "--port", type=int, default=0, help="TCP port (0 = OS-assigned)"
    )
    parser.add_argument(
        "--max-frame-mb",
        type=float,
        default=DEFAULT_MAX_FRAME_BYTES / 2**20,
        help="per-frame receive ceiling in MiB",
    )
    parser.add_argument(
        "--allow-pickle-setup",
        action="store_true",
        help=(
            "accept pickled SETUP payloads (required to serve a fleet; "
            "off by default because unpickling executes caller-chosen "
            "code — enable only where every reachable caller is trusted)"
        ),
    )
    parser.add_argument(
        "--fault",
        action="append",
        default=[],
        metavar="KIND@ROUND[:SECONDS]",
        help=(
            "fault injection (repeatable): crash@N / stall@N[:SECS] / "
            "corrupt_frame@N trigger on the N-th round request, "
            "refuse_connect@N on the N-th connection attempt"
        ),
    )
    args = parser.parse_args(argv)
    parent = os.environ.pop(PARENT_ENV, None)
    if parent:
        _exit_with_parent(int(parent))
    server = WorkerServer(
        args.host,
        args.port,
        max_frame_bytes=int(args.max_frame_mb * 2**20),
        fault_schedule=FaultSchedule.from_args(args.fault),
        hard_crash=True,
        allow_pickle_setup=bool(args.allow_pickle_setup),
    )
    server.auth_key = os.environ.pop(KEY_ENV, None) or None
    print(f"repro-worker listening on {server.address}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive use
        pass
    finally:
        server.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
