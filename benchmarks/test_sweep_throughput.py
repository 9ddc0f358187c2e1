"""Failure-sweep throughput: scenarios per second on a 48-router network.

The sweep engine's cost model is simple — one control-plane fixpoint
simulation per scenario — so its throughput is the number the rest of
the tooling budgets against: a depth-1 sweep of an N-router network is
~2N scenarios, and a scenario deadline should be set a safe multiple of
the per-scenario seconds recorded here.

Records JSON under ``benchmarks/results/sweep_throughput.json`` with the
serial scenarios/s and, on hardware with ≥ 4 usable CPUs, the ``--jobs
4`` speedup (``--jobs`` is capped at the usable CPUs, so on a 1-CPU
host both runs are serial).  The serial floor is asserted everywhere;
the speedup floor only where there are cores to speed up on.
Determinism (serial payload == parallel payload) is asserted everywhere
too — parallelism must never change results.
"""

import json
import time

from repro.model import Network
from repro.obs import normalize_run
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.report import format_table
from repro.sweep import SweepConfig, run_network_sweep
from repro.sweep.runner import available_cpus
from repro.synth.templates.backbone import build_backbone

from benchmarks.conftest import record, record_json

N_ROUTERS = 48

#: Serial floor: a 48-router scenario simulation costs ~0.12 s on a
#: 2-CPU container (8.1 scenarios/s serial), so even a badly-starved box
#: clears 1/s.
MIN_SERIAL_SCENARIOS_PER_SECOND = 1.0

#: Parallel floor on a ≥ 4-core host: workers are independent processes
#: simulating disjoint scenarios, so 4 workers must buy at least 2×.
MIN_PARALLEL_SPEEDUP = 2.0


def _normalized(result) -> str:
    return json.dumps(normalize_run(result.as_dict()), sort_keys=True)


def _timed_sweep(network, jobs):
    with use_registry(MetricsRegistry()):
        start = time.perf_counter()
        result = run_network_sweep(network, "bench", config=SweepConfig(jobs=jobs))
        seconds = time.perf_counter() - start
    return result, seconds


def test_sweep_scenarios_per_second():
    configs, _spec = build_backbone("bench", 1, N_ROUTERS, seed=9, pop_size=6)
    network = Network.from_configs(configs, name="bench")

    serial, serial_seconds = _timed_sweep(network, jobs=1)
    scenarios = len(serial.rows)
    serial_rate = scenarios / serial_seconds
    assert serial.worst_status == "ok"
    assert serial_rate >= MIN_SERIAL_SCENARIOS_PER_SECOND

    cpus = available_cpus()
    rows = [("serial (--jobs 1)", scenarios, f"{serial_seconds:.2f}", f"{serial_rate:.1f}", "-")]
    payload = {
        "routers": N_ROUTERS,
        "scenarios": scenarios,
        "cpus": cpus,
        "serial_seconds": round(serial_seconds, 3),
        "serial_scenarios_per_second": round(serial_rate, 2),
    }

    parallel, parallel_seconds = _timed_sweep(network, jobs=4)
    speedup = serial_seconds / parallel_seconds if parallel_seconds else 0.0
    assert _normalized(parallel) == _normalized(serial)  # jobs never change results
    rows.append(
        (
            "parallel (--jobs 4)",
            scenarios,
            f"{parallel_seconds:.2f}",
            f"{scenarios / parallel_seconds:.1f}",
            f"{speedup:.2f}x",
        )
    )
    payload.update(
        parallel_seconds=round(parallel_seconds, 3),
        parallel_scenarios_per_second=round(scenarios / parallel_seconds, 2),
        parallel_speedup=round(speedup, 2),
    )
    if cpus >= 4:
        assert speedup >= MIN_PARALLEL_SPEEDUP, (
            f"--jobs 4 on {cpus} CPUs sped the sweep up only {speedup:.2f}x"
        )

    record(
        "sweep_throughput",
        format_table(
            ["run", "scenarios", "seconds", "scen/s", "speedup"],
            rows,
            title=f"failure-sweep throughput — {N_ROUTERS}-router backbone",
        ),
    )
    record_json("sweep_throughput", payload)
