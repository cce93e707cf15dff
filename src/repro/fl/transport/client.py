"""Caller-side connection to one ``repro-worker``.

A :class:`WorkerConnection` owns the socket to a single worker and speaks
the protocol in :mod:`repro.fl.transport.protocol`: handshake at connect
time, an optional one-time population-shard setup, then per-round
broadcast/gather exchanges.  The
:class:`~repro.fl.transport.collector.DistributedCollector` holds one
connection per configured worker.

The round exchange is split into :meth:`begin_round` (send only) and
:meth:`finish_round` (receive) so the collector can broadcast the round
to every worker first and only then start gathering — workers compute
concurrently while the caller drains replies one by one.
"""

from __future__ import annotations

import pickle
import socket
import time
from typing import Any, Dict, Optional, Sequence

import numpy as np

from repro.fl.client import FederatedClient
from repro.fl.transport.codec import (
    MSG_BYE,
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
    RawCodec,
    build_codec,
    model_signature,
)
from repro.fl.transport.framing import DEFAULT_MAX_FRAME_BYTES, FrameError
from repro.fl.transport.protocol import (
    Channel,
    HandshakeError,
    RemoteWorkerError,
    TransportError,
    WORKER_KEYS,
    hello_header,
)
from repro.nn.module import Module
from repro.utils.rng import RngLike, as_rng
from repro.utils.serialization import blob_to_arrays


def parse_address(spec: str) -> tuple:
    """Split a ``host:port`` worker spec (IPv6 hosts use ``[...]:port``)."""
    spec = spec.strip()
    host, separator, port = spec.rpartition(":")
    if not separator or not host:
        raise ValueError(f"worker spec must look like host:port, got {spec!r}")
    host = host.strip("[]")
    try:
        return host, int(port)
    except ValueError as exc:
        raise ValueError(f"worker spec has a non-integer port: {spec!r}") from exc


class WorkerConnection:
    """One caller↔worker connection of a distributed collect fleet.

    Args:
        address: the worker's ``host:port`` spec.
        connect_timeout: socket timeout for connect/handshake/setup.
        round_timeout: socket timeout while waiting for a round reply —
            exceeding it is the "straggler worker" failure the collector
            maps onto dropout semantics.  ``None`` waits forever.
        retry_attempts: how many connect attempts
            :meth:`connect_with_retry` makes before giving up (1 = no
            retrying).
        retry_backoff: base delay of the exponential backoff between
            attempts (doubled per attempt, jittered, capped at
            ``retry_backoff_max``).
        retry_backoff_max: ceiling on a single backoff sleep.
        retry_rng: seed or generator for the backoff jitter — seeded by
            the collector so retry timing is as reproducible as the rest
            of the run.
        wire_codec: gradient wire codec negotiated at HELLO time; the
            worker encodes its shard frames with it and this connection
            decodes them into the caller's round buffer.  The default
            ``raw`` keeps the pre-codec wire format byte for byte.
    """

    def __init__(
        self,
        address: str,
        *,
        connect_timeout: float = 10.0,
        round_timeout: Optional[float] = 120.0,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        retry_attempts: int = 3,
        retry_backoff: float = 0.05,
        retry_backoff_max: float = 2.0,
        retry_rng: RngLike = None,
        wire_codec: str = "raw",
    ):
        if retry_attempts < 1:
            raise ValueError(f"retry_attempts must be >= 1, got {retry_attempts}")
        if retry_backoff <= 0 or retry_backoff_max <= 0:
            raise ValueError("retry backoff delays must be > 0")
        self.address = address
        self.host, self.port = parse_address(address)
        self.connect_timeout = float(connect_timeout)
        self.round_timeout = round_timeout
        self.max_frame_bytes = int(max_frame_bytes)
        self.retry_attempts = int(retry_attempts)
        self.retry_backoff = float(retry_backoff)
        self.retry_backoff_max = float(retry_backoff_max)
        self._retry_rng = as_rng(retry_rng)
        self._codec = build_codec(wire_codec)
        self.wire_codec = self._codec.name
        self._channel: Optional[Channel] = None
        self.has_shard = False
        self._drained_sent = 0
        self._drained_received = 0
        #: Successful connects after the first — how often this worker's
        #: link was repaired over the connection's lifetime.
        self.reconnects = 0
        #: Failed connect attempts (each consumed one retry budget slot).
        self.connect_failures = 0
        self._ever_connected = False

    @property
    def connected(self) -> bool:
        return self._channel is not None

    @property
    def bytes_sent(self) -> int:
        """Lifetime bytes sent to this worker, across reconnects."""
        current = self._channel.bytes_sent if self._channel else 0
        return self._drained_sent + current

    @property
    def bytes_received(self) -> int:
        """Lifetime bytes received from this worker, across reconnects."""
        current = self._channel.bytes_received if self._channel else 0
        return self._drained_received + current

    def connect(self, model: Module) -> None:
        """Open the socket and run the handshake for ``model``.

        Raises :class:`~repro.fl.transport.protocol.HandshakeError` (via
        the worker's ERROR reply) when the worker refuses — wrong protocol
        version, a wire codec the worker does not serve, or a shard built
        for a differently-shaped model.
        """
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.connect_timeout
        )
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        channel = Channel(sock, max_frame_bytes=self.max_frame_bytes)
        try:
            channel.send(
                MSG_HELLO,
                hello_header(
                    model_signature(model),
                    wire_codec=self.wire_codec,
                    key=WORKER_KEYS.get(self.address),
                ),
            )
            header, _ = channel.expect(MSG_WELCOME)
        except RemoteWorkerError as exc:
            channel.close()
            raise HandshakeError(f"worker {self.address} refused: {exc}") from exc
        except BaseException:
            channel.close()
            raise
        self._channel = channel
        self.has_shard = bool(header.get("has_shard"))
        if self._ever_connected:
            self.reconnects += 1
        self._ever_connected = True

    def connect_with_retry(self, model: Module) -> None:
        """:meth:`connect` under the bounded retry/backoff policy.

        Transient failures — connection refused, reset, timeout, a peer
        that closed mid-handshake — are retried up to ``retry_attempts``
        times with seeded exponential backoff plus jitter.  A
        :class:`~repro.fl.transport.protocol.HandshakeError` is
        *permanent* (wrong protocol version or model signature: the
        worker answered and said no) and is raised immediately — retrying
        a refusal would only re-earn it.
        """
        last_error: Optional[BaseException] = None
        for attempt in range(self.retry_attempts):
            if attempt:
                delay = min(
                    self.retry_backoff_max,
                    self.retry_backoff * (2 ** (attempt - 1)),
                )
                # Full jitter in [delay, 2*delay): desynchronizes a fleet of
                # callers re-connecting to the same recovered worker.
                time.sleep(delay * (1.0 + float(self._retry_rng.random())))
            try:
                self.connect(model)
                return
            except HandshakeError:
                raise
            except (TransportError, FrameError, OSError) as exc:
                self.connect_failures += 1
                last_error = exc
        assert last_error is not None
        raise last_error

    def reset(self) -> None:
        """Tell the worker to discard whatever shard it holds."""
        channel = self._require_channel()
        channel.send(MSG_RESET)
        channel.expect(MSG_READY)
        self.has_shard = False

    def setup(
        self,
        model: Module,
        client_ids: Sequence[int],
        clients: Sequence[FederatedClient],
        rng_states: Optional[Dict[int, dict]] = None,
        codec_states: Optional[Dict[int, np.ndarray]] = None,
    ) -> None:
        """Ship the worker its population shard (once per worker process).

        This is the protocol's largest transfer (every client carries its
        local dataset), so it runs under ``round_timeout`` — the knob
        sized for bulk payloads — not the handshake's ``connect_timeout``.
        ``codec_states`` resumes a stateful wire codec's per-client state
        (topk error-feedback residuals) alongside the RNG states.
        """
        channel = self._require_channel()
        channel.settimeout(self.round_timeout)
        channel.send(
            MSG_SETUP,
            {},
            pickle.dumps(
                (
                    model,
                    [int(i) for i in client_ids],
                    list(clients),
                    rng_states,
                    codec_states,
                )
            ),
        )
        channel.expect(MSG_READY)
        self.has_shard = True

    def extend(
        self,
        client_ids: Sequence[int],
        clients: Sequence[FederatedClient],
        rng_states: Optional[Dict[int, dict]] = None,
        codec_states: Optional[Dict[int, np.ndarray]] = None,
    ) -> None:
        """Merge extra clients into the worker's *existing* shard.

        This is the re-dispatch path: when another worker dies mid-round,
        its clients (with their last-known RNG states, and — for a
        stateful wire codec — their last-known residuals) are shipped to
        a survivor, which then recomputes the lost rows.  The worker
        keeps its original clients; the merged ones are replaced if
        already present.  Requires a held shard (the worker refuses
        otherwise — merging into nothing would skip the model transfer).
        """
        channel = self._require_channel()
        channel.settimeout(self.round_timeout)
        channel.send(
            MSG_SETUP,
            {"merge": True},
            pickle.dumps(
                (
                    None,
                    [int(i) for i in client_ids],
                    list(clients),
                    rng_states,
                    codec_states,
                )
            ),
        )
        channel.expect(MSG_READY)

    def begin_round(
        self, state_blob: bytes, rows: Sequence[int], dtype: np.dtype, dim: int
    ) -> None:
        """Send the round's broadcast (state dict + row slice) — no wait."""
        channel = self._require_channel()
        channel.settimeout(self.round_timeout)
        channel.send(
            MSG_ROUND,
            {
                "rows": [int(row) for row in rows],
                "dtype": np.dtype(dtype).str,
                "dim": int(dim),
            },
            state_blob,
        )

    def finish_round(self, out: np.ndarray) -> Dict[str, Any]:
        """Gather the worker's shard into ``out`` and return its trailer.

        ``out`` must be the C-contiguous ``(len(rows), dim)`` slice of the
        caller's round buffer that this worker's rows occupy.  With the
        ``raw`` codec the gradient frame is received straight into it, no
        intermediate copy; other codecs receive the encoded payload and
        decode it into ``out``.
        """
        channel = self._require_channel()
        header, _ = channel.expect(MSG_SHARD)
        announced = header.get("codec", "raw")
        if announced != self.wire_codec:
            raise TransportError(
                f"worker {self.address} answered with codec {announced!r}, "
                f"this connection negotiated {self.wire_codec!r}"
            )
        expected = int(header["nbytes"])
        if isinstance(self._codec, RawCodec):
            view = memoryview(out).cast("B")
            if expected != len(view):
                raise TransportError(
                    f"worker {self.address} announced a {expected}-byte shard "
                    f"for a {len(view)}-byte buffer slice"
                )
            channel.recv_raw_into(view)
        else:
            payload = channel.recv_raw()
            if expected != len(payload):
                raise TransportError(
                    f"worker {self.address} announced a {expected}-byte "
                    f"encoded shard but sent {len(payload)} bytes"
                )
            self._codec.decode(payload, out)
        _, body = channel.expect(MSG_TRAILER)
        return pickle.loads(body)

    def fetch_codec_state(self) -> Dict[int, np.ndarray]:
        """Fetch the worker's per-client wire-codec state (for checkpoints).

        Returns an empty dict for stateless codecs; for ``topk`` it is the
        worker-held error-feedback residual per client id.
        """
        channel = self._require_channel()
        channel.settimeout(self.round_timeout)
        channel.send(MSG_STATE)
        _, body = channel.expect(MSG_STATE)
        return {
            int(client_id): residual.copy()
            for client_id, residual in blob_to_arrays(body).items()
        }

    def ping(self) -> bool:
        """Heartbeat: True when the worker answers PONG in time."""
        if self._channel is None:
            return False
        try:
            self._channel.settimeout(self.connect_timeout)
            self._channel.send(MSG_PING)
            self._channel.expect(MSG_PONG)
            return True
        except (TransportError, OSError):
            self.drop()
            return False

    def drop(self) -> None:
        """Abandon the connection (after an error); the socket is closed."""
        if self._channel is not None:
            self._drained_sent += self._channel.bytes_sent
            self._drained_received += self._channel.bytes_received
            self._channel.close()
            self._channel = None
        self.has_shard = False

    def close(self) -> None:
        """Politely disconnect; the worker keeps its shard for a resume."""
        if self._channel is not None:
            try:
                self._channel.send(MSG_BYE)
            except OSError:
                pass
            self.drop()

    def _require_channel(self) -> Channel:
        if self._channel is None:
            raise TransportError(f"worker {self.address} is not connected")
        return self._channel
