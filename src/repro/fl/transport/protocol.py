"""Connection protocol for the distributed-collect transport.

A :class:`Channel` binds a connected socket to the framing and codec
layers and counts bytes in both directions (the source of the
bytes-on-wire numbers the profiler and benchmarks report).

The wire conversation between a caller (the
:class:`~repro.fl.transport.collector.DistributedCollector`) and a worker
(:class:`~repro.fl.transport.worker.WorkerServer`):

1. **Handshake** — caller sends ``HELLO`` with the protocol version, the
   signature of the model it is about to serve
   (:func:`~repro.fl.transport.codec.model_signature`), and the gradient
   wire codec it expects shard frames in (``wire_codec``; see
   :data:`~repro.fl.transport.codec.GRADIENT_CODECS`).  The worker
   refuses (``ERROR`` + close) on a version mismatch, on a codec it does
   not support, or — when it already holds a population shard from an
   earlier connection — on a signature mismatch.  Otherwise it answers
   ``WELCOME`` with ``has_shard`` so the caller knows whether setup is
   needed.  A worker spawned by this process's fleet helpers also
   requires the per-worker key its spawner registered in
   :data:`WORKER_KEYS` and refuses a HELLO without it.
2. **Setup** (only when the worker has no shard) — caller sends ``SETUP``
   carrying its chunk of the client population and a model replica; the
   worker verifies the replica's signature against the one claimed in
   ``HELLO`` and answers ``READY``.
3. **Rounds** — caller sends ``ROUND`` (encoded state dict + the round's
   row slice); worker computes and answers ``SHARD`` (announcement), one
   raw frame of gradient bytes — the shard encoded by the negotiated
   wire codec; with the default ``raw`` codec it is received straight
   into the caller's round buffer — and ``TRAILER`` (losses, BatchNorm
   batch statistics, post-round client RNG states, timing, first client
   error).
4. **Heartbeats** — ``PING``/``PONG`` at any point between rounds;
   ``STATE`` fetches a stateful codec's per-client state (topk
   error-feedback residuals) for checkpointing.
5. **Goodbye** — ``BYE``; the worker keeps its shard and accepts the next
   connection, so a restarted caller can resume without re-shipping.
"""

from __future__ import annotations

import hmac
import socket
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.fl.transport.codec import (
    MESSAGE_NAMES,
    MSG_ERROR,
    pack_message,
    unpack_message,
    wire_codec_names,
)
from repro.fl.transport.framing import (
    DEFAULT_MAX_FRAME_BYTES,
    recv_frame,
    recv_frame_into,
    send_frame,
)

#: Version of the wire protocol.  Bumped on any incompatible change; the
#: handshake refuses mismatched peers instead of mis-parsing their frames.
#: (See the bump rules in :mod:`repro.fl.transport.codec`.)
#: v2: HELLO negotiates the gradient wire codec (``wire_codec`` field);
#: SHARD frames carry codec-encoded payloads for non-raw codecs.
PROTOCOL_VERSION = 2

#: Leading bytes of every HELLO header's ``magic`` field.
PROTOCOL_MAGIC = "repro-collect"


#: Handshake keys of the worker processes this interpreter spawned, by
#: ``host:port`` address.  A spawner hands each worker its key through the
#: environment (never argv, which other local users can read) and records
#: it here; every connection to that address presents it in HELLO.  A
#: process elsewhere on the host that reaches the loopback port therefore
#: cannot complete the handshake, let alone send a pickled SETUP.
WORKER_KEYS: Dict[str, str] = {}


class TransportError(ConnectionError):
    """Base class for transport-level failures."""


class HandshakeError(TransportError):
    """The peer refused the connection during the handshake."""


class RemoteWorkerError(TransportError):
    """The worker reported a protocol-level error after the handshake."""


class Channel:
    """A framed, byte-counted message channel over a connected socket."""

    def __init__(
        self,
        sock: socket.socket,
        *,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ) -> None:
        self.sock = sock
        self.max_frame_bytes = int(max_frame_bytes)
        self.bytes_sent = 0
        self.bytes_received = 0

    def send(
        self,
        msg_type: int,
        header: Optional[Dict[str, Any]] = None,
        body: bytes = b"",
    ) -> None:
        self.bytes_sent += send_frame(self.sock, pack_message(msg_type, header, body))

    def recv(self) -> Tuple[int, Dict[str, Any], bytes]:
        payload = recv_frame(self.sock, max_bytes=self.max_frame_bytes)
        self.bytes_received += 8 + len(payload)
        return unpack_message(payload)

    def expect(self, msg_type: int) -> Tuple[Dict[str, Any], bytes]:
        """Receive one message and require it to be of ``msg_type``.

        An ``ERROR`` message raises :class:`RemoteWorkerError` with the
        peer's reason; any other unexpected type raises
        :class:`TransportError`.
        """
        received, header, body = self.recv()
        if received == msg_type:
            return header, body
        if received == MSG_ERROR:
            raise RemoteWorkerError(header.get("error", "peer refused the request"))
        raise TransportError(
            f"expected {MESSAGE_NAMES.get(msg_type, msg_type)}, peer sent "
            f"{MESSAGE_NAMES.get(received, received)}"
        )

    def send_raw(self, data: "bytes | bytearray | memoryview") -> None:
        """Send one raw (non-enveloped) frame — the gradient-shard path."""
        self.bytes_sent += send_frame(self.sock, bytes(data))

    def recv_raw(self) -> bytes:
        """Receive one raw frame as bytes — the encoded-shard path."""
        payload = recv_frame(self.sock, max_bytes=self.max_frame_bytes)
        self.bytes_received += 8 + len(payload)
        return payload

    def recv_raw_into(self, view: memoryview) -> None:
        """Receive one raw frame straight into ``view`` (exact size)."""
        self.bytes_received += recv_frame_into(
            self.sock, view, max_bytes=self.max_frame_bytes
        )

    def settimeout(self, timeout: Optional[float]) -> None:
        self.sock.settimeout(timeout)

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()


def hello_header(
    signature: str, wire_codec: str = "raw", key: Optional[str] = None
) -> Dict[str, Any]:
    """The HELLO header a caller sends to open a connection.

    ``key`` is the worker's handshake key (:data:`WORKER_KEYS`), for
    workers that require one.
    """
    header = {
        "magic": PROTOCOL_MAGIC,
        "protocol": PROTOCOL_VERSION,
        "model_signature": signature,
        "wire_codec": wire_codec,
    }
    if key is not None:
        header["key"] = key
    return header


def check_hello(
    header: Dict[str, Any],
    supported_codecs: Optional[Sequence[str]] = None,
    key: Optional[str] = None,
) -> Optional[str]:
    """Validate an incoming HELLO header; return a refusal reason or None.

    ``key`` is the worker's handshake key: when set, a HELLO that does not
    carry it is refused before anything else is checked.

    ``supported_codecs`` restricts which gradient wire codecs the worker
    will serve (``None`` = every registered codec).  A caller announcing
    a codec outside that set is refused with an error naming both sides'
    expectations — the codec-mismatch analogue of the version check.
    """
    if header.get("magic") != PROTOCOL_MAGIC:
        return f"not a {PROTOCOL_MAGIC} peer"
    if key is not None and not hmac.compare_digest(
        str(header.get("key", "")).encode(), key.encode()
    ):
        return "HELLO failed authentication: wrong or missing worker key"
    version = header.get("protocol")
    if version != PROTOCOL_VERSION:
        return (
            f"protocol version mismatch: worker speaks {PROTOCOL_VERSION}, "
            f"caller sent {version!r}"
        )
    if not isinstance(header.get("model_signature"), str):
        return "HELLO carries no model signature"
    codec = header.get("wire_codec", "raw")
    if not isinstance(codec, str):
        return f"HELLO carries a non-string wire codec: {codec!r}"
    supported = (
        tuple(supported_codecs)
        if supported_codecs is not None
        else wire_codec_names()
    )
    if codec not in supported:
        return (
            f"unsupported wire codec {codec!r}: this worker serves "
            f"{', '.join(sorted(supported))}"
        )
    return None
