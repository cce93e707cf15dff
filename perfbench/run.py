"""Benchmark: paper-size SignGuard federated rounds, end to end and per module.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cnn50_seq --seed 1 --seconds 60 --trace 0

``--trace 0`` measures the untraced program and prints the end-to-end
metrics; ``--trace 1`` runs an untraced reference and then a traced
experiment, and prints the per-module metrics.  The second-to-last line of
standard output is a JSON object of details (environment, repeats, checks);
the last line is the result::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

Metric names and units come from ``BENCHMARK.json``; which end-to-end
metric each per-module metric should move, and on which workload, is in
``perfbench/expectations.json``.  Exits 2 without a result when the
checkout has no ``src/repro`` tree or the manifest and the metric table
disagree.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

from probe import RoundProbe, caller_peak_rss_kib, exit_on_sigterm, leftover_workers
from tracer import NN_LAYERS, Tracer, install_tracing
from workloads import FLEET_LEG_RESERVE_S, FLEET_LEG_ROUNDS, MIN_EXPERIMENTS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

BLAS_ENV_PREFIXES = ("OPENBLAS", "OMP_", "MKL_", "BLIS_", "GOTO", "VECLIB", "NUMEXPR")


def openblas_threads() -> Optional[int]:
    """Threads of numpy's bundled OpenBLAS, read through its C symbol."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas_threads": openblas_threads(),
        "blas_env": {
            key: value
            for key, value in sorted(os.environ.items())
            if key.startswith(BLAS_ENV_PREFIXES)
        },
        "loadavg_1m_start": os.getloadavg()[0],
    }


def median(values: List[float]) -> float:
    return float(statistics.median(values)) if values else float("nan")


def mean(values: List[float]) -> float:
    return statistics.fmean(values) if values else float("nan")


def tail(values: List[float]):
    """Highest whole percentile with at least 10 samples beyond it."""
    import numpy as np

    n = len(values)
    if n <= 10:
        return float("nan"), None
    percentile = math.floor(100.0 * (1.0 - 10.0 / n))
    return float(np.percentile(values, percentile)), percentile


def steady(experiment) -> list:
    return [sample for sample in experiment.rounds if sample.index >= 1]


def best_of_repeats(runs) -> Dict[int, float]:
    """Each round index's fastest wall time over the run's identical experiments.

    The experiments of a run repeat one seeded experiment (their digests
    are checked equal), so round ``i`` does the same work in each.  Its
    best time over the repeats, which are spread across the whole run, is
    its time with the least interference from the shared host, whose speed
    drifts by up to ~50% over spells of seconds to minutes.
    """
    best: Dict[int, float] = {}
    for run in runs:
        for sample in run.rounds:
            best[sample.index] = min(best.get(sample.index, math.inf), sample.wall_s)
    return best


def repeat_until(probe: RoundProbe, workload, seed: int, deadline: float) -> list:
    """Repeat the experiment while the next one should end by ``deadline``."""
    runs = [probe.run(workload, seed, workload.rounds)]
    while len(runs) < MIN_EXPERIMENTS or (
        perf_counter() + median([run.run_s for run in runs]) <= deadline
    ):
        runs.append(probe.run(workload, seed, workload.rounds))
    return runs


def sequential_deadline(workload, seconds: float) -> float:
    """When the repeated sequential experiments of a run must end."""
    reserve = FLEET_LEG_RESERVE_S if workload.fleet_leg else 0.0
    return perf_counter() + max(seconds - reserve, 0.0)


# -- end-to-end --------------------------------------------------------------


def untraced_run(workload, seed: int, seconds: float):
    deadline = sequential_deadline(workload, seconds)
    probe = RoundProbe(digest_rounds=FLEET_LEG_ROUNDS)
    probe.install()
    try:
        runs = repeat_until(probe, workload, seed, deadline)
        fleet = None
        if workload.fleet_leg:
            fleet = probe.run(workload, seed, FLEET_LEG_ROUNDS, fleet=True)
    finally:
        probe.close()

    walls = [sample.wall_s for run in runs for sample in steady(run)]
    tail_value, tail_percentile = tail(walls)
    best = best_of_repeats(runs)
    best_steady = [wall for index, wall in sorted(best.items()) if index >= 1]
    steady_s = sum(best_steady)
    samples_per_round = workload.num_clients * workload.batch_size  # 1 local step
    everything = runs + ([fleet] if fleet else [])
    attempted = sum(run.attempted_rows for run in everything)
    failed = sum(run.failed_rows for run in everything)
    metrics = {
        "setup_s": median([run.setup_s for run in runs]),
        "first_round_s": best.get(0, math.nan),
        "round_s_p50": median(best_steady),
        "round_s_tail": tail_value,
        "client_samples_per_s": (
            samples_per_round * len(best_steady) / steady_s if steady_s else math.nan
        ),
        "run_s": min(run.run_s for run in runs),
        "peak_rss_mib": caller_peak_rss_kib() / 1024.0,
        "rows_obtained_frac": 1.0 - failed / max(attempted, 1),
    }
    # Model quality depends on the seed's data (a SimpleCNN seed can stall
    # near chance), so it is reported here, unbounded, beside the timings.
    last = runs[-1]
    details = {
        "final_test_accuracy": last.final_accuracy,
        "honest_kept_frac": mean(last.honest_kept),
        "malicious_kept_frac": mean(last.malicious_kept),
        "steady_rounds": len(walls),
        "repeats_per_round": len(runs),
        "round_s_pooled_p50": median(walls),
        "round_s_tail_percentile": tail_percentile,
        "failed_rows_frac": failed / max(attempted, 1),
        "setup_s_samples": [run.setup_s for run in runs],
        "run_s_samples": [run.run_s for run in runs],
        "first_round_s_samples": [run.rounds[0].wall_s for run in runs if run.rounds],
        "errors": errors(everything),
    }
    checks = common_checks(everything)
    final = workload.rounds - 1
    checks["repeat_digest_equal"] = len({run.digests.get(final) for run in runs}) == 1
    if fleet is not None:
        checks["fleet_equals_sequential_digest"] = fleet_matches(fleet, runs[0])
        details["fleet_leg"] = {
            "setup_s": fleet.setup_s,
            "round_s": [sample.wall_s for sample in fleet.rounds],
            "wire_bytes": [s.bytes_sent + s.bytes_received for s in fleet.rounds],
            "worker_peak_rss_mib": fleet.worker_peak_kib / 1024.0,
        }
    return metrics, details, checks, attempted, failed


def fleet_matches(fleet, sequential) -> bool:
    """The fleet leg's per-round digests equal the sequential run's."""
    return all(
        fleet.digests.get(k) == sequential.digests.get(k) is not None
        for k in range(FLEET_LEG_ROUNDS)
    )


def errors(runs) -> List[str]:
    """What each raising experiment raised, for the details line."""
    return sorted({run.error for run in runs if run.error})


def common_checks(runs) -> Dict[str, bool]:
    rounds = [sample for run in runs for sample in run.rounds]
    return {
        "no_round_raised": all(run.error is None for run in runs),
        "all_rounds_ran": all(len(run.rounds) == run.rounds_planned for run in runs),
        "aggregates_finite": all(sample.aggregate_finite for sample in rounds),
        "accuracy_finite": all(
            run.final_accuracy is not None and 0.0 <= run.final_accuracy <= 1.0
            for run in runs
        ),
        "no_orphaned_workers": not any(run.orphaned_workers for run in runs),
    }


# -- per-module --------------------------------------------------------------

_ZERO = (0.0, 0.0, 0)


def _incl(name: str) -> Callable:
    return lambda s: s.spans.get(name, _ZERO)[0]


def _self(*names: str) -> Callable:
    return lambda s: sum(s.spans.get(name, _ZERO)[1] for name in names)


def _count(name: str) -> Callable:
    return lambda s: s.counts.get(name, 0)


def _collect_wall(s) -> float:
    return s.spans.get("collect.wall", _ZERO)[0]


def _idle_frac(s) -> float:
    wall = _collect_wall(s)
    if not s.worker_busy_s or wall <= 0:
        return float("nan")
    return 1.0 - sum(s.worker_busy_s) / (len(s.worker_busy_s) * wall)


#: Per-round extractors; each metric is the median over the traced steady
#: rounds.  ``nn.*`` layer rows are self times, the rest inclusive times.
PER_ROUND: Dict[str, Callable] = {
    "data.sample_s": _incl("data.sample"),
    "data.sample_calls": _count("data.sample_calls"),
    **{
        f"nn.{layer}.{method}_s": _self(f"nn.{layer}.{method}")
        for layer in NN_LAYERS
        for method in ("forward", "backward")
    },
    "nn.other_modules_s": _self("nn.other.forward", "nn.other.backward"),
    "nn.im2col_s": _self("nn.im2col"),
    "nn.col2im_s": _self("nn.col2im"),
    "nn.CrossEntropyLoss_s": _self("nn.CrossEntropyLoss"),
    "nn.get_flat_gradients_s": _self("nn.get_flat_gradients"),
    "nn.zero_grad_s": _self("nn.zero_grad"),
    "nn.parameters_calls": _count("nn.parameters_calls"),
    "nn.module_calls": _count("nn.module_calls"),
    "client.compute_gradient_s": _incl("client.compute_gradient"),
    "client.glue_s": _self("client.compute_gradient"),
    "collect.wall_s": _collect_wall,
    "collect.worker_busy_s_max": lambda s: max(s.worker_busy_s, default=0.0),
    "collect.worker_idle_frac": _idle_frac,
    "collect.caller_wait_s": lambda s: (
        _collect_wall(s) - max(s.worker_busy_s, default=0.0)
    ),
    "transport.bytes_sent": lambda s: s.bytes_sent,
    "transport.bytes_received": lambda s: s.bytes_received,
    "wire_bytes_per_round": lambda s: s.bytes_sent + s.bytes_received,
    "transport.decode_s": _incl("transport.decode"),
    "transport.encode_state_dict_s": _incl("transport.encode_state_dict"),
    "attack.apply_s": _incl("attack.apply"),
    "defense.aggregate_s": _incl("defense.aggregate"),
    "defense.selected_frac": lambda s: s.selected_frac,
    "core.extract_features_s": _incl("core.extract_features"),
    "core.NormThresholdFilter_s": _incl("core.NormThresholdFilter"),
    "core.SignClusteringFilter_s": _incl("core.SignClusteringFilter"),
    "clustering.meanshift_fit_s": _incl("clustering.meanshift_fit"),
    "clustering.estimate_bandwidth_s": _incl("clustering.estimate_bandwidth"),
    "clustering.pairwise_distances_s": _incl("clustering.pairwise_distances"),
    "clustering.pairwise_distances_calls": _count(
        "clustering.pairwise_distances_calls"
    ),
    "server.apply_gradient_vector_s": _incl("server.apply_gradient_vector"),
    "eval.evaluate_model_s": _incl("eval.evaluate_model"),
    "trace.round_s_p50": lambda s: s.wall_s,
    "trace.unattributed_frac": lambda s: s.spans["round"][1] / s.spans["round"][0],
}

#: Per traced experiment (set-up spans, fault counters, per-call p50); each
#: metric is the median over the traced experiments.
PER_RUN: Dict[str, Callable] = {
    "data.build_dataset_s": lambda run: run.setup_spans.get(
        "data.build_dataset", _ZERO
    )[0],
    "data.partition_dataset_s": lambda run: run.setup_spans.get(
        "data.partition_dataset", _ZERO
    )[0],
    "collect.failed_rows": lambda run: sum(s.failed_rows for s in run.rounds),
    "collect.reconnects": lambda run: sum(s.reconnects for s in run.rounds),
    "collect.redispatched": lambda run: sum(s.redispatched for s in run.rounds),
    "client.compute_gradient_s_p50": lambda run: median(
        [d for s in steady(run) for d in s.durations["client.compute_gradient"]]
    ),
}

#: Rows a workload with a fleet leg takes from that leg: collector and
#: transport behaviour only shows over the wire.
FLEET_ROWS = (
    "collect.worker_busy_s_max",
    "collect.worker_idle_frac",
    "collect.caller_wait_s",
    "transport.bytes_sent",
    "transport.bytes_received",
    "wire_bytes_per_round",
    "transport.decode_s",
    "transport.encode_state_dict_s",
    "collect.failed_rows",
    "collect.reconnects",
    "collect.redispatched",
)
FLEET_TIMINGS = ("fleet.setup_s", "fleet.first_round_s", "fleet.round_s_p50")

PER_LAYER_NAMES = sorted([*PER_ROUND, *PER_RUN, *FLEET_TIMINGS, "trace.overhead_frac"])


def reduce_traced(runs) -> Dict[str, float]:
    """Per-module metrics of traced experiments, pooled over their rounds."""
    rounds = [sample for run in runs for sample in steady(run)]
    metrics = {
        name: median([float(fn(s)) for s in rounds]) for name, fn in PER_ROUND.items()
    }
    metrics.update(
        {name: median([float(fn(run)) for run in runs]) for name, fn in PER_RUN.items()}
    )
    return metrics


def traced_run(workload, seed: int, seconds: float):
    deadline = sequential_deadline(workload, seconds)
    halfway = perf_counter() + (deadline - perf_counter()) / 2
    probe = RoundProbe(digest_rounds=FLEET_LEG_ROUNDS)
    probe.install()
    try:
        plain = repeat_until(probe, workload, seed, halfway)
    finally:
        probe.close()

    tracer = Tracer()
    probe = RoundProbe(tracer=tracer, digest_rounds=FLEET_LEG_ROUNDS)
    patches = install_tracing(tracer)
    probe.install()
    try:
        traced = repeat_until(probe, workload, seed, deadline)
        fleet = None
        if workload.fleet_leg:
            fleet = probe.run(workload, seed, FLEET_LEG_ROUNDS, fleet=True)
    finally:
        probe.close()
        patches.close()

    metrics = reduce_traced(traced)
    untraced_p50 = median([s.wall_s for run in plain for s in steady(run)])
    metrics["trace.overhead_frac"] = metrics["trace.round_s_p50"] / untraced_p50 - 1.0
    if fleet is not None:
        fleet_metrics = reduce_traced([fleet])
        metrics.update({name: fleet_metrics[name] for name in FLEET_ROWS})
        metrics["fleet.setup_s"] = fleet.setup_s
        metrics["fleet.first_round_s"] = (
            fleet.rounds[0].wall_s if fleet.rounds else math.nan
        )
        metrics["fleet.round_s_p50"] = fleet_metrics["trace.round_s_p50"]
    else:
        metrics.update({name: math.nan for name in FLEET_TIMINGS})

    everything = plain + traced + ([fleet] if fleet else [])
    attempted = sum(run.attempted_rows for run in everything)
    failed = sum(run.failed_rows for run in everything)
    checks = common_checks(everything)
    final = workload.rounds - 1
    checks["traced_digest_equals_untraced"] = (
        len({run.digests.get(final) for run in plain + traced}) == 1
    )
    if fleet is not None:
        checks["fleet_equals_sequential_digest"] = fleet_matches(fleet, plain[0])
    details = {
        "steady_rounds": sum(len(steady(run)) for run in traced),
        "untraced_round_s_p50": untraced_p50,
        "errors": errors(everything),
    }
    return metrics, details, checks, attempted, failed


# -- entry point -------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro tree under {ROOT}", file=sys.stderr)
        return 2
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    expectations = json.loads((HERE / "expectations.json").read_text())
    declared = sorted(metric["name"] for metric in manifest["per_layer"])
    if declared != PER_LAYER_NAMES or sorted(expectations) != PER_LAYER_NAMES:
        print(
            "perfbench: BENCHMARK.json, expectations.json and run.py "
            "disagree on the per-layer metric names",
            file=sys.stderr,
        )
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    # Everything the run writes (the fleet's captured worker stderr) stays
    # inside the checkout.
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = tempfile.tempdir = str(scratch)
    sys.path.insert(0, str(src))

    exit_on_sigterm()
    env = environment()
    run = traced_run if args.trace else untraced_run
    metrics, details, checks, attempted, failed = run(workload, args.seed, args.seconds)
    checks["no_worker_outlives_run"] = not leftover_workers()
    env["loadavg_1m_end"] = os.getloadavg()[0]

    section = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in manifest[section]}
    unmeasured = [name for name in units if not math.isfinite(metrics[name])]
    if not args.trace:
        checks["end_to_end_metrics_finite"] = not unmeasured
    # JSON has no NaN.  A per-module metric the workload never exercises
    # (the conv rows of logreg2000_lie, say) reads 0.
    metrics.update({name: 0.0 for name in unmeasured})
    details = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "checks": checks,
        **details,
    }
    result = {
        "correct": all(checks.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
