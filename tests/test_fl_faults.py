"""Deterministic chaos harness: fault schedules, injection, quorum policies.

The contracts under test:

* :class:`FaultSpec` / :class:`FaultSchedule` are pure declarative data —
  parse/format round-trips, seeded :meth:`FaultSchedule.random` draws are
  reproducible, per-worker slicing re-keys correctly;
* every collect backend honours an injected fault by skipping the
  faulted worker's rows (RNG streams untouched, rows NaN, ids in
  ``failed_rows``) — on a fleet with re-dispatch off, the demote rung —
  so a faulted run is **bit-identical** to a clean run with the same
  clients planned as dropouts;
* the simulation maps a total failure to :class:`FleetOutageError` and a
  sub-quorum round to the configured ``on_quorum_loss`` policy;
* the distributed backend walks the full recovery ladder: a crashed
  worker's rows are re-dispatched to survivors and the round completes
  with **zero** dropouts, bit-identical to a run with no fault at all.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.fl.collector import SequentialCollector, build_collector
from repro.fl.faults import (
    FAULT_KINDS,
    FaultSchedule,
    FaultSpec,
    FleetOutageError,
    QuorumLossError,
    parse_fault,
)
from repro.fl.transport import DistributedCollector, start_thread_fleet
from repro.perf.profiler import RoundProfiler
from tests.test_fl_parallel_collect import fleet_collector, make_clients, make_model
from tests.test_fl_transport import PlannedSchedule, build_simulation, make_plan


# ---------------------------------------------------------------------------
# FaultSpec / parse_fault units
# ---------------------------------------------------------------------------


class TestFaultSpec:
    def test_valid_spec_normalizes_types(self):
        spec = FaultSpec(kind="stall", round="3", worker="1", seconds=2)
        assert spec.round == 3 and isinstance(spec.round, int)
        assert spec.worker == 1 and isinstance(spec.worker, int)
        assert spec.seconds == 2.0 and isinstance(spec.seconds, float)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "explode", "round": 1},
            {"kind": "crash", "round": 0},
            {"kind": "crash", "round": 1, "worker": -1},
            {"kind": "stall", "round": 1, "seconds": 0},
        ],
    )
    def test_invalid_specs_raise(self, kwargs):
        with pytest.raises(ValueError):
            FaultSpec(**kwargs)

    def test_to_arg_round_trips_through_parse(self):
        for spec in (
            FaultSpec(kind="crash", round=2),
            FaultSpec(kind="stall", round=5, seconds=1.5),
            FaultSpec(kind="corrupt_frame", round=9),
            FaultSpec(kind="refuse_connect", round=1),
        ):
            assert parse_fault(spec.to_arg()) == spec

    @pytest.mark.parametrize(
        "text", ["crash", "crash@", "@2", "crash@two", "stall@2:soon"]
    )
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            parse_fault(text)

    def test_parse_assigns_worker(self):
        assert parse_fault("crash@4", worker=3).worker == 3


# ---------------------------------------------------------------------------
# FaultSchedule units
# ---------------------------------------------------------------------------


class TestFaultSchedule:
    def test_fires_matches_kind_occurrence_worker(self):
        schedule = FaultSchedule(
            [FaultSpec(kind="crash", round=2, worker=1), FaultSpec("stall", 2)]
        )
        assert schedule.fires("crash", 2, worker=1).kind == "crash"
        assert schedule.fires("crash", 2, worker=0) is None
        assert schedule.fires("crash", 3, worker=1) is None
        assert schedule.any_fires(2).kind == "stall"
        assert schedule.any_fires(1) is None

    def test_fires_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="fault kind"):
            FaultSchedule().fires("explode", 1)

    def test_for_worker_rekeys_to_zero(self):
        schedule = FaultSchedule(
            [
                FaultSpec("crash", 2, worker=1),
                FaultSpec("stall", 3, worker=1, seconds=7.0),
                FaultSpec("crash", 4, worker=0),
            ]
        )
        own = schedule.for_worker(1)
        assert len(own) == 2
        assert all(spec.worker == 0 for spec in own)
        assert own.fires("stall", 3).seconds == 7.0
        assert schedule.for_worker(2) == FaultSchedule()

    def test_worker_indices_and_cli_args(self):
        fleet_wide = FaultSchedule(
            [FaultSpec("crash", 1, worker=2), FaultSpec("stall", 1, worker=0)]
        )
        assert fleet_wide.worker_indices() == (0, 2)
        with pytest.raises(ValueError, match="single-worker"):
            fleet_wide.to_cli_args()
        args = fleet_wide.for_worker(2).to_cli_args()
        assert args == ["--fault", "crash@1"]
        assert FaultSchedule().to_cli_args() == []

    def test_equality_hash_and_bool(self):
        a = FaultSchedule.from_args(["crash@2", "stall@1:5"])
        b = FaultSchedule.from_args(["stall@1:5", "crash@2"])  # order-free
        assert a == b and hash(a) == hash(b)
        assert a and len(a) == 2
        assert not FaultSchedule()

    def test_random_is_seed_deterministic(self):
        draw = lambda seed: FaultSchedule.random(  # noqa: E731
            20, 4, rng=seed, crash_rate=0.1, stall_rate=0.1, corrupt_rate=0.05
        )
        assert draw(7) == draw(7)
        assert draw(7) != draw(8)
        for spec in draw(7):
            assert 1 <= spec.round <= 20
            assert 0 <= spec.worker < 4
            assert spec.kind in FAULT_KINDS

    def test_random_rate_one_fires_everywhere(self):
        schedule = FaultSchedule.random(3, 2, rng=0, crash_rate=1.0)
        assert len(schedule) == 6
        for occurrence in (1, 2, 3):
            for worker in (0, 1):
                assert schedule.fires("crash", occurrence, worker)


# ---------------------------------------------------------------------------
# injection on every backend (fleets with re-dispatch off: the demote rung)
# ---------------------------------------------------------------------------


def collect_rounds(collector, clients, model, rounds, n_rows=None):
    """Run ``rounds`` full collect passes; return the list of buffer copies."""
    n_rows = len(clients) if n_rows is None else n_rows
    out = np.empty((n_rows, model.num_parameters()))
    buffers = []
    for _ in range(rounds):
        collector.collect(clients, model, out)
        buffers.append(out.copy())
    return buffers


class TestInProcessInjection:
    """Collector-side injection: every backend, no recovery rung above demote."""

    def test_sequential_fault_fails_every_row(self):
        clients = make_clients(4)
        model = make_model()
        collector = SequentialCollector(
            fault_schedule=FaultSchedule.from_args(["crash@2"])
        )
        out = np.empty((4, model.num_parameters()))
        collector.collect(clients, model, out)
        assert collector.failed_rows == ()
        collector.collect(clients, model, out)
        assert collector.failed_rows == (0, 1, 2, 3)
        assert np.isnan(out).all()
        # Round 3: the schedule is spent; collection resumes.
        collector.collect(clients, model, out)
        assert collector.failed_rows == ()
        assert np.isfinite(out).all()

    def test_thread_fault_maps_buffer_positions_to_worker(self):
        clients = make_clients(6)
        model = make_model()
        collector = fleet_collector(
            3,
            fault_schedule=FaultSchedule([FaultSpec("crash", 2, worker=1)]),
            redispatch=False,
        )
        try:
            collector.collect(
                clients, model, np.empty((6, model.num_parameters()))
            )
            out = np.empty((4, model.num_parameters()))
            collector.collect(clients, model, out, rows=[1, 2, 3, 5])
        finally:
            collector.close()
        # Client ids 2 and 3 live on worker 1 of 3; in this sampled cohort
        # they sit at buffer positions 1 and 2.
        assert collector.failed_rows == (2, 3)
        assert np.isnan(out[[1, 2]]).all()
        assert np.isfinite(out[[0, 3]]).all()

    def test_process_fault_maps_client_ids_to_worker(self, workers_import_tests):
        clients = make_clients(6)
        model = make_model()
        collector = build_collector(
            2,
            "process",
            fault_schedule=FaultSchedule([FaultSpec("crash", 2, worker=1)]),
            redispatch=False,
        )
        try:
            collector.collect(
                clients, model, np.empty((6, model.num_parameters()))
            )
            out = np.empty((6, model.num_parameters()))
            collector.collect(clients, model, out)
            # Client ids 3, 4, 5 live on worker 1 of 2.
            assert collector.failed_rows == (3, 4, 5)
            assert np.isnan(out[[3, 4, 5]]).all()
            assert np.isfinite(out[[0, 1, 2]]).all()
        finally:
            collector.close()

    @pytest.mark.parametrize(
        "make_collector, failed_ids",
        [
            # thread fleet: worker 1 of 3 holds clients 3, 4, 5
            (
                lambda s: fleet_collector(3, fault_schedule=s, redispatch=False),
                [3, 4, 5],
            ),
            # process: worker 1 of 2 holds clients 4, 5, 6, 7
            (
                lambda s: build_collector(
                    2, "process", fault_schedule=s, redispatch=False
                ),
                [4, 5, 6, 7],
            ),
        ],
    )
    def test_faulted_round_equals_planned_dropouts(self, make_collector, failed_ids):
        # The acceptance contract: a fault-injected run is bit-identical to
        # a clean sequential run whose participation plan declares the same
        # clients as dropouts (faulted clients never advance their RNG).
        n, rounds, fault_round = 8, 3, 2
        schedule = FaultSchedule(
            [FaultSpec("crash", fault_round, worker=1)]
        )
        faulted = build_simulation(make_collector(schedule))
        try:
            faulted_records = [faulted.run_round(i) for i in range(rounds)]
        finally:
            faulted.close()

        active = [i for i in range(n) if i not in failed_ids]
        plans = [
            make_plan(0, n, active=range(n)),
            make_plan(1, n, active=active, dropped=failed_ids),
            make_plan(2, n, active=range(n)),
        ]
        reference = build_simulation(
            SequentialCollector(), schedule=PlannedSchedule(plans)
        )
        try:
            reference_records = [reference.run_round(i) for i in range(rounds)]
        finally:
            reference.close()

        assert [r.train_loss for r in faulted_records] == [
            r.train_loss for r in reference_records
        ]
        assert faulted_records[1].num_dropped == len(failed_ids)
        faulted_state = faulted.model.state_dict()
        reference_state = reference.model.state_dict()
        for name in reference_state:
            assert np.array_equal(faulted_state[name], reference_state[name])


# ---------------------------------------------------------------------------
# quorum policies
# ---------------------------------------------------------------------------


def faulted_thread_collector(fault_round=2, worker=1):
    return fleet_collector(
        2,
        fault_schedule=FaultSchedule([FaultSpec("crash", fault_round, worker)]),
        redispatch=False,
    )


class TestQuorumPolicies:
    def test_accept_records_degraded_round(self):
        simulation = build_simulation(faulted_thread_collector())
        simulation.min_cohort_fraction = 0.9
        try:
            healthy = simulation.run_round(0)
            degraded = simulation.run_round(1)
        finally:
            simulation.close()
        assert healthy.quorum_met
        assert not degraded.quorum_met
        assert degraded.num_dropped == 4
        assert degraded.num_retries == 0

    def test_abort_raises_quorum_loss(self):
        simulation = build_simulation(faulted_thread_collector())
        simulation.min_cohort_fraction = 0.9
        simulation.on_quorum_loss = "abort"
        try:
            simulation.run_round(0)
            with pytest.raises(QuorumLossError, match="below the quorum"):
                simulation.run_round(1)
        finally:
            simulation.close()

    def test_retry_recollects_until_quorum(self):
        # The fault spends itself on the first attempt; the retry's fresh
        # collect pass sees no fault and restores the full cohort.
        simulation = build_simulation(faulted_thread_collector())
        simulation.min_cohort_fraction = 0.9
        simulation.on_quorum_loss = "retry"
        try:
            record = simulation.run_round(0)
            assert record.num_retries == 0
            record = simulation.run_round(1)
        finally:
            simulation.close()
        assert record.num_retries == 1
        assert record.quorum_met
        assert record.num_dropped == 0

    def test_retry_budget_exhaustion_raises(self):
        # Three consecutive faulted passes vs. a single retry: still below
        # quorum when the budget runs out.
        schedule = FaultSchedule(
            [FaultSpec("crash", occurrence, worker=1) for occurrence in (1, 2, 3)]
        )
        simulation = build_simulation(
            fleet_collector(2, fault_schedule=schedule, redispatch=False)
        )
        simulation.min_cohort_fraction = 0.9
        simulation.on_quorum_loss = "retry"
        simulation.quorum_retries = 1
        try:
            with pytest.raises(QuorumLossError, match="after 1 retries"):
                simulation.run_round(0)
        finally:
            simulation.close()

    def test_total_failure_is_fleet_outage(self):
        simulation = build_simulation(
            SequentialCollector(fault_schedule=FaultSchedule.from_args(["crash@1"]))
        )
        try:
            with pytest.raises(FleetOutageError, match="fleet outage"):
                simulation.run_round(0)
        finally:
            simulation.close()

    def test_retry_policy_recovers_from_fleet_outage(self):
        simulation = build_simulation(
            SequentialCollector(fault_schedule=FaultSchedule.from_args(["crash@1"]))
        )
        simulation.on_quorum_loss = "retry"
        try:
            record = simulation.run_round(0)
        finally:
            simulation.close()
        assert record.num_retries == 1
        assert np.isfinite(record.train_loss)

    def test_quorum_validation(self):
        with pytest.raises(ValueError, match="min_cohort_fraction"):
            build_simulation_with(min_cohort_fraction=1.5)
        with pytest.raises(ValueError, match="on_quorum_loss"):
            build_simulation_with(on_quorum_loss="panic")
        with pytest.raises(ValueError, match="quorum_retries"):
            build_simulation_with(quorum_retries=-1)


def build_simulation_with(**kwargs):
    simulation = build_simulation(SequentialCollector())
    simulation.close()
    from repro.fl.simulation import FederatedSimulation

    return FederatedSimulation(
        simulation.server,
        simulation.clients,
        simulation.attack,
        simulation.test_dataset,
        collector=SequentialCollector(),
        **kwargs,
    )


# ---------------------------------------------------------------------------
# distributed recovery ladder: retry + re-dispatch
# ---------------------------------------------------------------------------


class TestDistributedRecovery:
    def test_crashed_worker_rows_redispatched_bit_exactly(self):
        # The tentpole acceptance proof: worker 0 crashes on its second
        # round; re-dispatch recomputes its rows on the survivor, so the
        # round completes with ZERO dropouts and every round of the run is
        # bit-identical to a run with no fault at all.
        reference = build_simulation(SequentialCollector())
        try:
            reference_losses = [
                reference.run_round(index).train_loss for index in range(3)
            ]
            reference_state = reference.model.state_dict()
        finally:
            reference.close()

        crash = FaultSchedule.from_args(["crash@2"])  # worker 0's 2nd round
        profiler = RoundProfiler()
        with start_thread_fleet(2, fault_schedule=crash) as fleet:
            collector = DistributedCollector(
                fleet.addresses, connect_timeout=5.0, round_timeout=30.0
            )
            simulation = build_simulation(collector)
            simulation.profiler = profiler
            try:
                records = [simulation.run_round(index) for index in range(3)]
                state = simulation.model.state_dict()
            finally:
                simulation.close()

        assert [r.train_loss for r in records] == reference_losses
        for name in reference_state:
            assert np.array_equal(state[name], reference_state[name])
        # No round lost a client...
        assert [r.num_dropped for r in records] == [0, 0, 0]
        # ...but the crash round shows its recovery in the record: worker
        # 0's contiguous 4-client chunk (ids 0-3) was re-dispatched.  The
        # crashed thread worker closes its listener for good, so round 3
        # re-dispatches the same chunk again.
        assert records[0].num_redispatched == 0
        assert records[1].num_redispatched == 4
        assert records[2].num_redispatched == 4
        # ...and in the profiler: a per-round annotation plus a run total.
        assert profiler.round_totals[1]["collect_redispatched"] == 4
        assert profiler.counters["collect_redispatched"] == 8

    def test_refused_connect_retried_with_backoff(self):
        # Worker 0 hangs up on the first HELLO; connect_with_retry's second
        # attempt succeeds and the collect is unaffected.
        refuse = FaultSchedule.from_args(["refuse_connect@1"])
        with start_thread_fleet(1, fault_schedule=refuse) as fleet:
            collector = DistributedCollector(
                fleet.addresses,
                connect_timeout=5.0,
                retry_attempts=3,
                retry_backoff=0.01,
            )
            clients = make_clients(4)
            model = make_model()
            out = np.empty((4, model.num_parameters()))
            try:
                collector.collect(clients, model, out)
                failures = collector._conns[0].connect_failures
            finally:
                collector.close()
        assert np.isfinite(out).all()
        assert failures == 1

    def test_corrupt_frame_degrades_to_dropouts_without_redispatch(self):
        # A torn gradient frame is detected (FrameError), never aggregated,
        # and with redispatch off the worker's rows demote to dropouts.
        corrupt = FaultSchedule.from_args(["corrupt_frame@2"])
        with start_thread_fleet(2, fault_schedule=corrupt) as fleet:
            collector = DistributedCollector(
                fleet.addresses,
                connect_timeout=5.0,
                round_timeout=30.0,
                redispatch=False,
            )
            simulation = build_simulation(collector)
            try:
                healthy = simulation.run_round(0)
                degraded = simulation.run_round(1)
            finally:
                simulation.close()
        assert healthy.num_dropped == 0
        assert degraded.num_dropped == 4
        assert np.isfinite(degraded.train_loss)

    def test_caller_side_injection_severs_link_before_broadcast(self):
        # A caller-side schedule fails the link without the worker ever
        # seeing the round; with redispatch the survivor recovers the rows.
        crash = FaultSchedule([FaultSpec("crash", 2, worker=0)])
        with start_thread_fleet(2) as fleet:  # healthy workers
            collector = DistributedCollector(
                fleet.addresses,
                connect_timeout=5.0,
                round_timeout=30.0,
                fault_schedule=crash,
            )
            simulation = build_simulation(collector)
            try:
                records = [simulation.run_round(index) for index in range(3)]
            finally:
                simulation.close()
        assert [r.num_dropped for r in records] == [0, 0, 0]
        assert records[1].num_redispatched == 4
        assert records[1].num_reconnects >= 1  # the link was repaired after


def test_quorum_size_uses_ceiling():
    simulation = build_simulation(SequentialCollector())
    simulation.min_cohort_fraction = 0.5
    try:
        plan = make_plan(0, 8, active=range(5), dropped=range(5, 8))
        assert simulation._quorum_size(plan) == math.ceil(0.5 * 8)
    finally:
        simulation.close()
