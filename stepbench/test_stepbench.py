"""Self-tests of the step-level benchmark (short runs of every workload).

Run from the repository root::

    python3 -m pytest stepbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from harness import (  # noqa: E402
    COUNTED_LAYERS,
    END_TO_END,
    PER_LAYER,
    run_benchmark,
)
from layers import LAYERS, layer_targets, leftover_wrappers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from repro.obs.recorder import validate_chrome_trace  # noqa: E402

#: Long enough for one timed cycle per phase, no more.
SMOKE_SECONDS = 0.01

#: Per-layer metrics that must repeat exactly from run to run.
DETERMINISTIC = [
    "network.simmpi.messages",
    "network.simmpi.bytes",
    "network.simmpi.sim_s",
    "network.simmpi.retransmissions",
    "parallel.engine.tasks",
    "parallel.engine.tasks_serial",
    "parallel.engine.ipc_bytes",
    *(f"{layer}.calls" for layer in COUNTED_LAYERS),
]


def _values(result: dict) -> dict:
    return {k: m["value"] for k, m in result["metrics"].items()}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Two short traced runs of every workload, with the same seed."""
    out = tmp_path_factory.mktemp("traces")
    return {
        name: [run_benchmark(name, seed=5, seconds=SMOKE_SECONDS, trace=True,
                             out_dir=out) for _ in range(2)]
        for name in WORKLOADS
    }


def test_benchmark_json_matches_emitted_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_untraced_smoke(workload):
    result, report = run_benchmark(workload, seed=1, seconds=SMOKE_SECONDS,
                                   trace=False)
    assert report["checks"] == ["ok"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 3  # one RSPLIT cycle
    values = _values(result)
    assert list(values) == list(END_TO_END)
    assert all(v > 0 and math.isfinite(v) for v in values.values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_smoke_and_additivity(traced, workload):
    result, report = traced[workload][0]
    assert result["correct"] and result["failed"] == 0
    values = _values(result)
    assert list(values) == list(PER_LAYER)
    # Layer self times partition the traced step wall.
    layer_sum = sum(values[f"{layer}.self_ms"] for layer in LAYERS)
    assert layer_sum == pytest.approx(values["step.traced_ms"], rel=1e-9)
    trace = json.loads(Path(report["trace_file"]).read_text())
    assert validate_chrome_trace(trace) == []
    spans = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
    assert spans and all({"step", "parent"} <= set(e["args"]) for e in spans)


def test_layers_move_where_expected(traced):
    serial = _values(traced["prim-serial-ne8"][0][0])
    dist = _values(traced["prim-dist4-ne8"][0][0])
    sw = _values(traced["sw-dist4-ne16-pipe"][0][0])
    assert serial["mesh.cubed_sphere.dss.calls"] > 0
    assert serial["homme.bndry.exchange.calls"] == 0
    assert serial["network.simmpi.messages"] == 0
    assert dist["homme.bndry.exchange.calls"] > 0
    assert dist["homme.rhs.self_ms"] == 0  # kernels run in the workers
    assert dist["parallel.engine.tasks"] > 0
    assert dist["parallel.engine.overlap_fraction"] == 0
    assert sw["parallel.engine.overlap_fraction"] > 0
    assert sw["homme.remap.calls"] == 0


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_counts_repeat_exactly(traced, workload):
    first, second = (_values(result) for result, _ in traced[workload])
    assert {k: first[k] for k in DETERMINISTIC} == \
        {k: second[k] for k in DETERMINISTIC}


def test_wrappers_removed_after_traced_run(tmp_path):
    def bindings():
        return [getattr(owner, attr) for _, owner, attr in layer_targets()]

    before = bindings()
    run_benchmark("sw-dist4-ne16-pipe", seed=2, seconds=SMOKE_SECONDS,
                  trace=True, out_dir=tmp_path)
    assert all(a is b for a, b in zip(bindings(), before))
    assert leftover_wrappers() == []


@pytest.mark.parametrize("workload", ["prim-serial-ne8", "sw-dist4-ne16-pipe"])
def test_nan_initial_state_fails_every_step(workload):
    result, report = run_benchmark(workload, seed=1, seconds=SMOKE_SECONDS,
                                   trace=False, poison=True)
    assert not result["correct"]
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert report["checks"] != ["ok"]


def _run_cli(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "stepbench/run.py", "--workload",
         "sw-dist4-ne16-pipe", "--seed", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def test_cli_prints_result_last_and_pins_blas_threads():
    proc = _run_cli(ROOT, "--seconds", str(SMOKE_SECONDS), "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == list(END_TO_END)
    report = json.loads(next(ln for ln in lines if ln.startswith("report "))[7:])
    threads = report["machine"]["threads"]
    assert all(threads[f"{lib}_NUM_THREADS"] == "1"
               for lib in ("OPENBLAS", "OMP", "MKL"))
    assert report["machine"]["nproc"] >= 1 and report["machine"]["blas"]


def test_refuses_to_run_without_the_program(tmp_path):
    """A directory holding only BENCHMARK.json and stepbench/ exits
    nonzero and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "stepbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run_cli(tmp_path, "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
