"""Measure one workload: set-up, timed steps, output checks, metrics.

A run is a closed loop: one driver process steps one model, and the
next step starts when the previous one returns.  Timed steps always
come in whole cycles of ``RSPLIT`` steps, so every run holds the same
share of vertical-remap steps.

- *Set-up* (``setup_s``) is construction (mesh, geometry, model,
  partition, halo exchanger, pool fork, context registration) plus one
  warm-up step, which fills the lazy operator caches.  It is repeated
  ``SETUPS`` times and the median is reported; the last model built is
  the one timed, from step 1 on, so each timed cycle holds one remap.
- *End-to-end* metrics come from untraced steps.  ``sypd`` is the
  simulated time of the timed steps over their wall time,
  ``step_ms_p50`` the median step wall and ``step_ms_tail`` the highest
  percentile with at least ten steps beyond it (see :func:`tail`).
- *Per-layer* metrics (``trace=True``) come from traced RSPLIT cycles
  (see :mod:`layers`) that alternate with untraced ones, so both see
  the same host conditions; the untraced cycles are the base of
  ``trace.overhead_frac``.  Counts of messages, bytes, simulated
  seconds, tasks and IPC bytes are taken over the warm-up step of a
  fresh model, so they repeat exactly; call counts are per traced step.
- *Output checks* run on the final state: finite, dry and tracer mass
  within tolerance, and on the distributed workloads a pool that stayed
  active with no serial tasks, degrades or respawns.  If any check
  fails, every timed step of the run counts as failed.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import platform
import resource
import statistics
import time
import traceback
from pathlib import Path

import numpy as np

from repro.homme.timestep import RSPLIT
from repro.obs import Tracer
from repro.perf.sypd import sypd_from_step_time

from layers import LAYERS, LayerTracer
from workloads import MASS_TOL, TRACER_MASS_TOL, WORKERS, WORKLOADS

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Untimed steps closing each set-up.
WARMUP_STEPS = 1
#: Steps that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10
#: Steps per tail window (20 RSPLIT cycles, the length of a serial run).
TAIL_WINDOW = 60

#: name -> unit, as in BENCHMARK.json.
END_TO_END = {
    "sypd": "yr/day",
    "step_ms_p50": "ms",
    "step_ms_tail": "ms",
    "setup_s": "s",
    "rss_peak_mb": "MB",
}
#: Layers whose call count per step is reported next to their self time.
COUNTED_LAYERS = ("homme.remap", "mesh.cubed_sphere.dss",
                  "homme.bndry.exchange")
PER_LAYER = {
    **{f"{layer}.self_ms": "ms" for layer in LAYERS},
    **{f"{layer}.calls": "count/step" for layer in COUNTED_LAYERS},
    "step.traced_ms": "ms",
    "network.simmpi.messages": "count/step",
    "network.simmpi.bytes": "B/step",
    "network.simmpi.sim_s": "s/step",
    "network.simmpi.retransmissions": "count/step",
    "parallel.engine.tasks": "count/step",
    "parallel.engine.tasks_serial": "count/step",
    "parallel.engine.ipc_bytes": "B/step",
    "parallel.engine.worker_busy_frac": "fraction",
    "parallel.engine.overlap_fraction": "fraction",
    "trace.overhead_frac": "fraction",
}


def machine_info() -> dict:
    """What produced the numbers: cores, interpreter, numpy, BLAS."""
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = " ".join(str(deps.get(k, "")) for k in
                        ("name", "version", "openblas configuration")).strip()
    except (TypeError, KeyError):  # numpy without dict-mode show_config
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": " ".join(blas.split()),
        "threads": {k: v for k, v in sorted(os.environ.items())
                    if k.endswith("_NUM_THREADS")},
    }


def host_cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) CPU ticks of the machine so far, from /proc/stat.

    Steal is time the hypervisor gave this machine's CPUs to someone
    else; its share over a run says how much the host disturbed it.
    """
    try:
        with open("/proc/stat") as fh:
            ticks = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (ticks[7] if len(ticks) > 7 else 0), sum(ticks)


# -- counters --------------------------------------------------------------


def _engine_tally(run) -> dict:
    eng = run.engine
    if eng is None:
        return dict.fromkeys(("tasks", "tasks_serial", "ipc_bytes", "busy_s",
                              "overlap_s", "wait_s"), 0)
    return {
        "tasks": eng.tasks_parallel,
        "tasks_serial": eng.tasks_serial,
        "ipc_bytes": sum(s.bytes_in + s.bytes_out for s in eng.stats),
        "busy_s": sum(s.busy_seconds for s in eng.stats),
        "overlap_s": eng.pipeline_overlap_seconds,
        "wait_s": eng.pipeline_wait_seconds,
    }


def _mpi_tally(run) -> dict:
    mpi = run.mpi
    if mpi is None:
        return {"messages": 0, "bytes": 0, "retransmissions": 0, "sim_s": 0.0}
    return {
        "messages": mpi.messages_sent,
        "bytes": mpi.bytes_sent,
        "retransmissions": mpi.retransmissions,
        "sim_s": mpi.max_time(),
    }


def _delta(after: dict, before: dict) -> dict:
    return {k: after[k] - before[k] for k in after}


# -- stepping --------------------------------------------------------------


def _timed_cycles(run, seconds: float, walls: list[float],
                  layers: LayerTracer | None = None) -> None:
    """Step whole RSPLIT cycles until ``seconds`` have passed.

    Appends each step's wall time to ``walls`` as it completes, so the
    caller keeps the steps that finished if one raises.
    """
    deadline = time.perf_counter() + seconds
    while True:
        for _ in range(RSPLIT):
            if layers is not None:
                layers.step = len(walls)
            t0 = time.perf_counter()
            run.model.step()
            walls.append(time.perf_counter() - t0)
        if time.perf_counter() >= deadline:
            return


def _setup(build, seed: int, poison: bool):
    """Build and warm one model; returns (run, seconds, masses, counts)."""
    t0 = time.perf_counter()
    run = build(seed, poison)
    t_built = time.perf_counter()
    try:
        masses = (run.mass(), np.asarray(run.tracer_mass()))
        mpi0, eng0 = _mpi_tally(run), _engine_tally(run)
        t1 = time.perf_counter()
        for _ in range(WARMUP_STEPS):
            run.model.step()
        seconds = (t_built - t0) + (time.perf_counter() - t1)
    except BaseException:
        run.close()
        raise
    counts = {"mpi": _delta(_mpi_tally(run), mpi0),
              "engine": _delta(_engine_tally(run), eng0)}
    return run, seconds, masses, counts


def check_outputs(run, mass0: float, tracer_mass0: np.ndarray) -> list[str]:
    """Every failed output check, as a message (empty when all pass)."""
    problems = []
    if not run.finite():
        problems.append("state is not finite")
    drift = abs(run.mass() / mass0 - 1.0)
    if not drift <= MASS_TOL:
        problems.append(f"mass drift {drift:.3e} > {MASS_TOL:.0e}")
    if tracer_mass0.size:
        tdrift = np.abs(np.asarray(run.tracer_mass()) / tracer_mass0 - 1.0)
        if not np.all(tdrift <= TRACER_MASS_TOL):
            problems.append(f"tracer mass drift {np.max(tdrift):.3e} > "
                            f"{TRACER_MASS_TOL:.0e}")
    if run.distributed:
        eng = run.engine
        if not eng.active:
            problems.append(f"engine inactive: {eng.fallback_reason}")
        if eng.tasks_serial:
            problems.append(f"{eng.tasks_serial} tasks ran serially")
        if eng.degrade_kinds:
            problems.append(f"engine degraded: {eng.degrade_kinds}")
        if eng.recovery["respawns"]:
            problems.append(f"{eng.recovery['respawns']} worker respawns")
    return problems


# -- metrics ---------------------------------------------------------------


def sypd(walls: list[float], dt: float) -> float:
    """Simulated years per wall-clock day over the given steps."""
    return sypd_from_step_time(statistics.fmean(walls), dt)


def tail(walls: list[float]) -> tuple[float, float]:
    """(wall, percentile) of the step-wall tail.

    Within each window of ``TAIL_WINDOW`` consecutive steps (the whole
    run when it is shorter; a partial last window is dropped) take the
    highest percentile with ``TAIL_BEYOND`` steps beyond it, and report
    the median over windows.  On the primitive-equation runs this lands
    on the remap steps; windowing keeps a burst of host interference in
    one part of a long shallow-water run from setting the whole tail.
    """
    n = len(walls)
    size = n if n < TAIL_WINDOW else TAIL_WINDOW
    if size <= TAIL_BEYOND:
        return max(walls), 100.0
    values = [sorted(walls[i:i + size])[size - TAIL_BEYOND - 1]
              for i in range(0, n - size + 1, size)]
    return statistics.median(values), 100.0 * (size - TAIL_BEYOND) / size


def end_to_end(walls: list[float], dt: float, setup_s: float) -> dict:
    tail_s, _ = tail(walls)
    return {
        "sypd": sypd(walls, dt),
        "step_ms_p50": 1e3 * statistics.median(walls),
        "step_ms_tail": 1e3 * tail_s,
        "setup_s": setup_s,
        "rss_peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def count_metrics(counts: dict) -> dict:
    """The deterministic SimMPI and engine counts, per warm-up step."""
    out = {f"network.simmpi.{key}": counts["mpi"][key] / WARMUP_STEPS
           for key in ("messages", "bytes", "sim_s", "retransmissions")}
    out.update({f"parallel.engine.{key}": counts["engine"][key] / WARMUP_STEPS
                for key in ("tasks", "tasks_serial", "ipc_bytes")})
    return out


def per_layer(layers: LayerTracer, traced: list[float], counts: dict,
              engine_traced: dict, overhead: float) -> dict:
    """Per-layer metrics of the traced steps (ms and counts per step)."""
    n = len(traced)
    out = {f"{layer}.self_ms": 1e3 * layers.self_s.get(layer, 0.0) / n
           for layer in LAYERS}
    out.update({f"{layer}.calls": layers.calls.get(layer, 0) / n
                for layer in COUNTED_LAYERS})
    out["step.traced_ms"] = 1e3 * layers.root_s / n
    out.update(count_metrics(counts))
    out["parallel.engine.worker_busy_frac"] = (
        engine_traced["busy_s"] / (WORKERS * sum(traced))
        if engine_traced["tasks"] else 0.0)
    piped = engine_traced["overlap_s"] + engine_traced["wait_s"]
    out["parallel.engine.overlap_fraction"] = (
        engine_traced["overlap_s"] / piped if piped > 0 else 0.0)
    out["trace.overhead_frac"] = overhead
    return out


# -- one benchmark run -----------------------------------------------------


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  out_dir: Path | None = None,
                  poison: bool = False) -> tuple[dict, dict]:
    """Run one workload; returns (result, report).

    ``result`` is the driver-facing JSON object (``correct``,
    ``attempted``, ``failed``, ``metrics``); ``report`` carries the
    machine, the tail percentile, the set-up samples, the check results
    and the deterministic counts.
    """
    build = WORKLOADS[workload]
    setup_times = []
    run = None
    for _ in range(SETUPS):
        if run is not None:
            run.close()
        gc.collect()
        run, secs, (mass0, tracer_mass0), counts = _setup(build, seed, poison)
        setup_times.append(secs)

    walls: list[float] = []
    traced: list[float] = []
    problems: list[str] = []
    layers = LayerTracer(Tracer(f"stepbench-{workload}")) if trace else None
    engine_traced = dict.fromkeys(_engine_tally(run), 0)
    raised = 0
    ticks0 = host_cpu_ticks()
    try:
        if not trace:
            _timed_cycles(run, seconds, walls)
        else:
            deadline = time.perf_counter() + seconds
            while True:
                _timed_cycles(run, 0.0, walls)
                eng0 = _engine_tally(run)
                with layers:
                    _timed_cycles(run, 0.0, traced, layers)
                for key, value in _delta(_engine_tally(run), eng0).items():
                    engine_traced[key] += value
                if time.perf_counter() >= deadline:
                    break
        problems.extend(check_outputs(run, mass0, tracer_mass0))
    except Exception as exc:  # noqa: BLE001 - a raising step fails the run
        problems.append(f"step raised {type(exc).__name__}: {exc}")
        traceback.print_exc()
        raised = 1
    finally:
        run.close()
    ticks1 = host_cpu_ticks()
    leftover = multiprocessing.active_children()
    if leftover:
        problems.append(f"{len(leftover)} worker processes still alive")

    attempted = len(walls) + len(traced) + raised
    report = {
        "workload": workload,
        "seed": seed,
        "machine": machine_info(),
        "exec_path": run.exec_path,
        "dt_s": run.dt,
        "setup_samples_s": setup_times,
        "steps_untraced": len(walls),
        "step_walls_ms": [round(1e3 * w, 2) for w in walls],
        "steps_traced": len(traced),
        "host_steal_frac": (
            (ticks1[0] - ticks0[0]) / max(1, ticks1[1] - ticks0[1])
            if ticks0 and ticks1 else None),
        "checks": problems or ["ok"],
        "counts_per_step": count_metrics(counts),
    }
    if walls:
        report["step_ms_tail_percentile"] = tail(walls)[1]
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": attempted if problems else 0,
        "metrics": {},
    }
    if trace and traced:
        overhead = sypd(walls, run.dt) / sypd(traced, run.dt) - 1.0
        values = per_layer(layers, traced, counts, engine_traced, overhead)
        units = PER_LAYER
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            path = out_dir / f"{workload}.trace.json"
            layers.tracer.recorder.write_chrome_trace(str(path))
            report["trace_file"] = os.path.relpath(path)
    elif walls and not trace:
        values = end_to_end(walls, run.dt, statistics.median(setup_times))
        units = END_TO_END
    else:
        values, units = {}, {}
    result["metrics"] = {k: {"value": values[k], "unit": units[k]}
                         for k in units}
    return result, report
