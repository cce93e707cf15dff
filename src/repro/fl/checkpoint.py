"""Checkpoint/resume for federated runs: snapshot, atomic save, restore.

A :class:`Checkpoint` captures every piece of *mutable* run state the
simulation owns — the global model's ``state_dict()``, the server
optimizer's momentum velocities and learning rate, the previous aggregated
gradient, every RNG stream (server, attack, participation schedule, and
each client's batch sampler), stateful-attack internals, and the
:class:`~repro.utils.recording.RunRecorder` history.  Everything *immutable*
(datasets, partitions, client objects, model architecture) is rebuilt
deterministically from the :class:`~repro.utils.config.ExperimentConfig`
seed on resume, so checkpoints stay small: model-sized, not dataset-sized.

The on-disk format reuses the transport's pickle-free array codec
(:func:`~repro.utils.serialization.arrays_to_blob`)::

    8-byte magic  "RPROCKPT"
    4-byte big-endian format version
    4-byte big-endian metadata length
    JSON metadata (scalars, RNG states, recorder history, config echo)
    array blob    (model state, optimizer velocities, previous gradient)

Saves are atomic — written to ``<path>.tmp`` in the same directory, then
``os.replace``\\ d over the target — so a run killed mid-save leaves the
previous checkpoint intact, never a torn file.

Resuming through :func:`repro.fl.experiment.run_experiment(resume_from=...)
<repro.fl.experiment.run_experiment>` is proven bit-identical to the
uninterrupted run on every collect backend (``tests/test_fl_checkpoint.py``).
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

import numpy as np

from repro.utils.serialization import (
    NumpyJSONEncoder,
    arrays_to_blob,
    blob_to_arrays,
)

PathLike = Union[str, Path]

#: File magic: 8 bytes, never versioned (the version field follows it).
CHECKPOINT_MAGIC = b"RPROCKPT"

#: On-disk format version; bumped on any layout change.
CHECKPOINT_VERSION = 1

_U32 = struct.Struct("!I")

#: Array-blob key prefixes for the array groups.
_MODEL_PREFIX = "model."
_VELOCITY_PREFIX = "velocity."
_PREVIOUS_GRADIENT_KEY = "previous_gradient"
#: Per-client wire-codec state (topk error-feedback residuals), keyed by
#: client id.  Absent from checkpoints written before PR 7 and from any run
#: whose codec is stateless — both read back as ``{}``, so the format
#: version stays at 1.
_CODEC_PREFIX = "codec."


@dataclass
class Checkpoint:
    """One resumable snapshot of a federated run.

    Produced by :meth:`repro.fl.simulation.FederatedSimulation.\
    capture_checkpoint` and consumed by :meth:`~repro.fl.simulation.\
    FederatedSimulation.restore_checkpoint`; most callers only ever touch
    :func:`save_checkpoint` / :func:`load_checkpoint` and the
    ``resume_from=`` argument of :func:`~repro.fl.experiment.run_experiment`.
    """

    #: Rounds fully completed before this snapshot (resume starts here).
    rounds_completed: int
    #: Global model parameters and buffers (``Module.state_dict()``).
    model_state: Dict[str, np.ndarray]
    #: Server SGD momentum buffers, one per parameter (``None`` = not yet
    #: touched by a momentum update).
    velocities: List[Optional[np.ndarray]]
    #: Server learning rate at snapshot time (after any decay).
    learning_rate: float
    #: Previous round's aggregated gradient (attack/defense history input).
    previous_gradient: Optional[np.ndarray]
    #: ``FederatedServer.round_index`` at snapshot time.
    server_round_index: int
    #: ``bit_generator.state`` dicts for every RNG stream the run mutates.
    server_rng_state: Dict[str, Any]
    attack_rng_state: Dict[str, Any]
    participation_rng_state: Optional[Dict[str, Any]]
    #: Per-client batch-sampler states, keyed by global client id.
    client_rng_states: Dict[int, Dict[str, Any]]
    #: Stateful-attack internals (``Attack.state_dict()``; ``{}`` for the
    #: stateless majority).
    attack_state: Dict[str, Any] = field(default_factory=dict)
    #: ``RunRecorder.to_dict()`` of the history so far.
    recorder_state: Dict[str, Any] = field(default_factory=dict)
    #: Per-client wire-codec state by client id (topk error-feedback
    #: residuals; ``{}`` for stateless codecs and the sequential backend).
    codec_states: Dict[int, np.ndarray] = field(default_factory=dict)
    #: ``ExperimentConfig.to_dict()`` echo, used to refuse resuming under a
    #: different config (``None`` when captured outside ``run_experiment``).
    config: Optional[Dict[str, Any]] = None


def _encode_arrays(checkpoint: Checkpoint) -> Dict[str, np.ndarray]:
    arrays: Dict[str, np.ndarray] = {}
    for name, value in checkpoint.model_state.items():
        arrays[_MODEL_PREFIX + name] = value
    for index, velocity in enumerate(checkpoint.velocities):
        if velocity is not None:
            arrays[f"{_VELOCITY_PREFIX}{index}"] = velocity
    if checkpoint.previous_gradient is not None:
        arrays[_PREVIOUS_GRADIENT_KEY] = checkpoint.previous_gradient
    for client_id, residual in checkpoint.codec_states.items():
        arrays[f"{_CODEC_PREFIX}{int(client_id)}"] = residual
    return arrays


def save_checkpoint(checkpoint: Checkpoint, path: PathLike) -> Path:
    """Atomically write ``checkpoint`` to ``path`` and return the path.

    The temporary file lives in the target's directory so the final
    ``os.replace`` is a same-filesystem rename — atomic on POSIX.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    meta = {
        "rounds_completed": int(checkpoint.rounds_completed),
        "learning_rate": float(checkpoint.learning_rate),
        "server_round_index": int(checkpoint.server_round_index),
        "num_velocities": len(checkpoint.velocities),
        "server_rng_state": checkpoint.server_rng_state,
        "attack_rng_state": checkpoint.attack_rng_state,
        "participation_rng_state": checkpoint.participation_rng_state,
        # JSON object keys are strings; load_checkpoint re-ints them.
        "client_rng_states": {
            str(client_id): state
            for client_id, state in checkpoint.client_rng_states.items()
        },
        "attack_state": checkpoint.attack_state,
        "recorder_state": checkpoint.recorder_state,
        "config": checkpoint.config,
    }
    meta_bytes = json.dumps(meta, cls=NumpyJSONEncoder).encode("utf-8")
    blob = arrays_to_blob(_encode_arrays(checkpoint))
    tmp_path = path.with_name(path.name + ".tmp")
    with tmp_path.open("wb") as handle:
        handle.write(CHECKPOINT_MAGIC)
        handle.write(_U32.pack(CHECKPOINT_VERSION))
        handle.write(_U32.pack(len(meta_bytes)))
        handle.write(meta_bytes)
        handle.write(blob)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)
    return path


def load_checkpoint(path: PathLike) -> Checkpoint:
    """Read a checkpoint written by :func:`save_checkpoint`.

    Raises ``ValueError`` on a malformed, truncated, or future-versioned
    file — never unpickles anything.
    """
    path = Path(path)
    payload = path.read_bytes()
    view = memoryview(payload)
    header_size = len(CHECKPOINT_MAGIC) + 2 * _U32.size
    if len(view) < header_size:
        raise ValueError(f"{path} is too short to be a checkpoint")
    if bytes(view[: len(CHECKPOINT_MAGIC)]) != CHECKPOINT_MAGIC:
        raise ValueError(f"{path} is not a repro checkpoint (bad magic)")
    offset = len(CHECKPOINT_MAGIC)
    (version,) = _U32.unpack_from(view, offset)
    offset += _U32.size
    if version != CHECKPOINT_VERSION:
        raise ValueError(
            f"{path} has checkpoint format version {version}; this build "
            f"reads version {CHECKPOINT_VERSION}"
        )
    (meta_len,) = _U32.unpack_from(view, offset)
    offset += _U32.size
    if len(view) < offset + meta_len:
        raise ValueError(f"{path} is truncated inside its metadata")
    try:
        meta = json.loads(bytes(view[offset : offset + meta_len]))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} has malformed checkpoint metadata") from exc
    offset += meta_len
    arrays = blob_to_arrays(payload[offset:])

    model_state: Dict[str, np.ndarray] = {}
    velocities: List[Optional[np.ndarray]] = [None] * int(meta["num_velocities"])
    previous_gradient: Optional[np.ndarray] = None
    codec_states: Dict[int, np.ndarray] = {}
    for name, array in arrays.items():
        # blob_to_arrays returns read-only views into the file bytes; copy
        # so restored state is mutable, independent run state.
        if name.startswith(_MODEL_PREFIX):
            model_state[name[len(_MODEL_PREFIX) :]] = array.copy()
        elif name.startswith(_VELOCITY_PREFIX):
            index = int(name[len(_VELOCITY_PREFIX) :])
            if not 0 <= index < len(velocities):
                raise ValueError(
                    f"{path} names velocity {index} but declares "
                    f"{len(velocities)} parameters"
                )
            velocities[index] = array.copy()
        elif name == _PREVIOUS_GRADIENT_KEY:
            previous_gradient = array.copy()
        elif name.startswith(_CODEC_PREFIX):
            codec_states[int(name[len(_CODEC_PREFIX) :])] = array.copy()
        else:
            raise ValueError(f"{path} contains an unknown array {name!r}")

    return Checkpoint(
        rounds_completed=int(meta["rounds_completed"]),
        model_state=model_state,
        velocities=velocities,
        learning_rate=float(meta["learning_rate"]),
        previous_gradient=previous_gradient,
        server_round_index=int(meta["server_round_index"]),
        server_rng_state=meta["server_rng_state"],
        attack_rng_state=meta["attack_rng_state"],
        participation_rng_state=meta["participation_rng_state"],
        client_rng_states={
            int(client_id): state
            for client_id, state in meta["client_rng_states"].items()
        },
        attack_state=meta.get("attack_state") or {},
        recorder_state=meta.get("recorder_state") or {},
        codec_states=codec_states,
        config=meta.get("config"),
    )
