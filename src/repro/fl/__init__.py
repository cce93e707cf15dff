"""Federated-learning simulation: clients, server, and the experiment runner.

The simulation follows Algorithm 1 of the paper: synchronous rounds, one
local iteration of mini-batch SGD per round, and a robust gradient
aggregation rule on the server.  Byzantine clients are simulated by
computing honest gradients first and then letting the configured attack
replace them (the omniscient-attacker threat model), except for the
label-flipping attack which poisons the clients' local data instead.

Participation is pluggable (:mod:`repro.fl.participation`): the default
reproduces the paper's full-participation cross-silo setting, while
``uniform``/``fixed_cohort`` schedules sample a per-round cohort with
optional dropouts and stragglers — the cross-device regime.
"""

from repro.fl.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from repro.fl.client import BenignClient, ByzantineClient, FederatedClient
from repro.fl.collector import (
    COLLECT_BACKENDS,
    COLLECTOR_REGISTRY,
    GradientCollector,
    SequentialCollector,
    build_collector,
    make_collector,
)
from repro.fl.faults import (
    FaultSchedule,
    FaultSpec,
    FleetOutageError,
    QuorumLossError,
    parse_fault,
)
from repro.fl.participation import (
    FixedCohortParticipation,
    FullParticipation,
    ParticipationSchedule,
    RoundPlan,
    UniformParticipation,
    build_participation,
)
from repro.fl.server import FederatedServer
from repro.fl.simulation import FederatedSimulation, build_clients
from repro.fl.metrics import attack_impact, evaluate_model
from repro.fl.experiment import run_experiment, run_grid


#: Names re-exported lazily from the transport package: the distributed
#: backend and the wire-codec layer pull in socket machinery that purely
#: in-process runs never need (build_collector defers the same import for
#: the same reason).
_TRANSPORT_EXPORTS = {
    "DistributedCollector": "repro.fl.transport.collector",
    "GradientCodec": "repro.fl.transport.codec",
    "CodecError": "repro.fl.transport.codec",
    "build_codec": "repro.fl.transport.codec",
    "wire_codec_names": "repro.fl.transport.codec",
    "GRADIENT_CODECS": "repro.fl.transport.codec",
}


def __getattr__(name):
    module_name = _TRANSPORT_EXPORTS.get(name)
    if module_name is not None:
        import importlib

        return getattr(importlib.import_module(module_name), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "FederatedClient",
    "BenignClient",
    "ByzantineClient",
    "FederatedServer",
    "FederatedSimulation",
    "build_clients",
    "GradientCollector",
    "SequentialCollector",
    "DistributedCollector",
    "build_collector",
    "make_collector",
    "COLLECT_BACKENDS",
    "COLLECTOR_REGISTRY",
    "GradientCodec",
    "CodecError",
    "build_codec",
    "wire_codec_names",
    "GRADIENT_CODECS",
    "FaultSchedule",
    "FaultSpec",
    "FleetOutageError",
    "QuorumLossError",
    "parse_fault",
    "Checkpoint",
    "save_checkpoint",
    "load_checkpoint",
    "ParticipationSchedule",
    "RoundPlan",
    "FullParticipation",
    "UniformParticipation",
    "FixedCohortParticipation",
    "build_participation",
    "attack_impact",
    "evaluate_model",
    "run_experiment",
    "run_grid",
]
