"""Workloads, the measurement loop and the result line of the benchmark.

Each workload runs CLI sweeps in this process through ``dfrcbeam.cli.main``
on configs the benchmark writes itself, with ``--jobs 1`` and one caller
(a closed loop). A sweep is what a user runs once: the five-point SNR ladder
(one CLI call per SNR, each cell on its own channel), one Pareto seed chain,
or one DOA study. An operation is the unit that ``--jobs`` would hand out
(one cell, one seed chain, one study). A run makes a fixed number of whole
sweeps back to back: ``--seconds`` divided by the workload's nominal sweep
time, rounded, at least one. The count does not depend on how fast the
sweeps run, so every run of a workload does the same amount of work. Call i
of a run with ``--seed n`` uses the input seed ``100 * n + i``.
"""

from __future__ import annotations

import contextlib
import io
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import checks
from spans import Tracer

from dfrcbeam import cli, experiments
from dfrcbeam.channel import gen_channel

_SCENE = {
    "dims.n_tx_antennas": "32",
    "dims.n_tx_rf": "4",
    "dims.n_streams": "4",
    "dims.n_subcarriers": "8",
    "scene.target_angles": "-0.55, 0.38",
    "scene.target_gains": "1, 1",
    "scene.mainlobe": "-0.7891:-0.337, 0.0939:0.657",
}


@dataclass(frozen=True)
class Workload:
    command: str            # CLI subcommand
    config: dict            # config keys shared by every call
    op: str                 # experiments function that is one operation
    spans: tuple            # spans that must do work in a traced sweep
    nominal_s: float        # median sweep time on the reference machine
    steps: tuple = ({},)    # per-call config keys; one sweep calls each once

    def config_text(self, step: int = 0) -> str:
        keys = {**self.config, **self.steps[step]}
        return "".join(f"{k} = {v}\n" for k, v in keys.items())


_SOLVER_SPANS = (
    "solvers.design_fully_digital", "solvers.wiener_unconstrained",
    "solvers.compute_normalizers", "solvers.design_consensus_admm",
    "solvers.rate_quadratic_ku", "solvers.hybrid_combiners",
    "solvers.digital_refinement", "metrics.se_of_arrays",
    "solvers.comm_grad", "solvers.radar_grad", "solvers.factorize_two_stage",
    "solvers.analog_coordinate_descent", "architecture.project_analog",
    "channel.gen_channel")
_COMMON_SPANS = ("cli.main", "experiments.cell", "fileio.write_csv",
                 "channel.steering_matrix")

WORKLOADS = {
    # configs/se_vs_snr.cfg: SSME + negative SE, full connection
    "se_vs_snr": Workload(
        command="se-vs-snr",
        config={**_SCENE, "dims.n_users": "4",
                "objective.radar_metric": "ssme",
                "objective.comm_metric": "neg_se",
                "scalarization.w_radar": "0.2"},
        op="_se_snr_cell_task",
        spans=_COMMON_SPANS + _SOLVER_SPANS + (
            "metrics.pattern_of_effective", "solvers.radar_reference"),
        nominal_s=26.0,
        steps=tuple({"sweep.snrs_db": snr}
                    for snr in ("-10", "-5", "0", "5", "10"))),
    # configs/pareto.cfg: radar MI + SE, three architectures, 11 weights
    "pareto": Workload(
        command="pareto",
        config={**_SCENE, "dims.n_users": "2",
                "objective.radar_metric": "neg_radar_mi",
                "objective.comm_metric": "neg_se",
                "noise.variance": "0.1",
                "arch.n_phase_shifters": "64",
                "sweep.architectures": "full, partial, dynamic",
                "sweep.weights": "0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, "
                                 "0.8, 0.9, 1"},
        op="_pareto_seed_task",
        spans=_COMMON_SPANS + _SOLVER_SPANS + ("metrics.radar_mi",),
        nominal_s=25.0),
    # configs/doa.cfg: virtual-array study over K = 1, 2, 4, 8
    "doa": Workload(
        command="doa",
        config={"dims.n_radar_rx_rf": "8", "sweep.k_values": "1, 2, 4, 8",
                "doa.snr_db": "25", "doa.n_tx": "16", "doa.n_trials": "40",
                "doa.n_resolution_trials": "11", "doa.power_mode": "total"},
        op="doa_study",
        spans=_COMMON_SPANS + (
            "virtualarray.build_virtual_data", "virtualarray.noise_subspace",
            "virtualarray.music_spectrum", "virtualarray.music_value",
            "virtualarray.refined_peak"),
        nominal_s=4.5),
}

# (span, module, attribute) for module functions; every imported copy of
# the function is rebound too
_FUNCTION_SPANS = (
    ("cli.main", "cli", "main"),
    ("solvers.design_fully_digital", "solvers", "design_fully_digital"),
    ("solvers.compute_normalizers", "solvers", "compute_normalizers"),
    ("metrics.pattern_of_effective", "metrics", "pattern_of_effective"),
    ("metrics.pattern_of_effective", "metrics", "per_carrier_pattern"),
    ("solvers.design_consensus_admm", "solvers", "design_consensus_admm"),
    ("solvers.hybrid_combiners", "solvers", "design_combiners"),
    ("solvers.digital_refinement", "solvers", "_digital_refinement"),
    ("solvers.radar_reference", "solvers", "_radar_reference"),
    ("metrics.radar_mi", "metrics", "radar_mi"),
    ("metrics.se_of_arrays", "metrics", "se_of_arrays"),
    ("solvers.factorize_two_stage", "solvers", "factorize_two_stage"),
    ("solvers.analog_coordinate_descent", "solvers",
     "_analog_coordinate_descent"),
    ("architecture.project_analog", "architecture", "project_analog"),
    ("channel.gen_channel", "channel", "gen_channel"),
    ("channel.steering_matrix", "channel", "steering_matrix"),
    ("virtualarray.build_virtual_data", "virtualarray", "build_virtual_data"),
    ("virtualarray.noise_subspace", "virtualarray", "_noise_subspace"),
    ("virtualarray.music_spectrum", "virtualarray", "music_spectrum"),
    ("virtualarray.music_value", "virtualarray", "music_value"),
    ("virtualarray.refined_peak", "virtualarray", "_refined_peak"),
    ("fileio.write_csv", "fileio", "write_csv"),
)
# (span, _Engine method) for the engine kernels
_ENGINE_SPANS = (
    ("solvers.wiener_unconstrained", "wiener_unconstrained"),
    ("solvers.hybrid_combiners", "hybrid_combiners"),
    ("solvers.rate_quadratic_ku", "rate_quadratic_ku"),
    ("metrics.radar_mi", "_radar_mi"),
    ("solvers.comm_grad", "comm_grad"),
    ("solvers.radar_grad", "radar_grad"),
)
SPANS = tuple(dict.fromkeys(
    [s for s, _, _ in _FUNCTION_SPANS] + [s for s, _ in _ENGINE_SPANS]
    + ["experiments.cell"]))
_LINALG = ("solve", "inv", "slogdet", "svd", "eigh")
COUNTS = ("solvers.fd.iterations", "solvers.admm.iterations",
          "solvers.admm.converged", "solvers.two_stage.iterations",
          "numpy.linalg.calls")

QUALITY = {  # metric -> unit; se_* come from se_vs_snr, the area from pareto
    "se_fd_bits": "bits/s/Hz",
    "se_admm_bits": "bits/s/Hz",
    "se_twostage_bits": "bits/s/Hz",
    "pareto_hv_bits2": "bits2",
}
NOT_APPLICABLE = 1.0    # quality metric value on workloads that do not produce it


class Run:
    """One benchmark run: the sweeps, their timings and what the trace saw."""

    def __init__(self, name: str, seed: int, work_dir: Path):
        self.name = name
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.work_dir = work_dir
        self.config_paths = []
        for step in range(len(self.wl.steps)):
            path = work_dir / f"{name}-{step}.cfg"
            path.write_text(self.wl.config_text(step))
            self.config_paths.append(path)
        self.config = experiments.ExperimentConfig.from_file(self.config_paths[0])
        self.calls = []         # (output directory, input seed) per CLI call
        self.sweep_s = []
        self.op_s = []
        self.op_failed = 0
        self.analogs = []       # analog precoders designed in a traced run
        self.errors = []

    def sweeps(self):
        n = len(self.wl.steps)
        return [self.calls[i:i + n] for i in range(0, len(self.calls), n)]

    # -- operations

    def _time_ops(self, tracer: Tracer):
        def on_result(result):
            statuses = ([result[-1]] if self.name == "se_vs_snr" else
                        [row[-1] for row in result] if self.name == "pareto"
                        else [])
            self.op_failed += any(str(s).startswith("failed") for s in statuses)

        def timed(fn):
            def op(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.op_s.append(time.perf_counter() - t0)
            return op

        original = getattr(experiments, self.wl.op)
        tracer.rebind(experiments, self.wl.op,
                       timed(tracer.span("experiments.cell", original, on_result)))

    def _install_trace(self, tracer: Tracer):
        from dfrcbeam import solvers

        def fd_done(res):
            tracer.counts["solvers.fd.iterations"] += len(res.objective_trace)

        def admm_done(res):
            tracer.counts["solvers.admm.iterations"] += len(res.primal_trace)
            tracer.counts["solvers.admm.converged"] += res.status == "converged"
            self.analogs.append(res.precoder.analog)

        def two_stage_done(res):
            precoder, residuals = res
            tracer.counts["solvers.two_stage.iterations"] += len(residuals) - 1
            self.analogs.append(precoder.analog)

        hooks = {"solvers.design_fully_digital": fd_done,
                 "solvers.design_consensus_admm": admm_done,
                 "solvers.factorize_two_stage": two_stage_done}
        for span, mod, attr in _FUNCTION_SPANS:
            module = sys.modules[f"dfrcbeam.{mod}"]
            if tracer.install_function(span, module, attr, hooks.get(span)) == 0:
                raise RuntimeError(f"no binding of dfrcbeam.{mod}.{attr}")
        for span, attr in _ENGINE_SPANS:
            tracer.install_method(span, solvers._Engine, attr)
        for attr in _LINALG:
            tracer.install_counter("numpy.linalg.calls", np.linalg, attr)

    # -- sweeps

    def _call(self, step: int):
        i = len(self.calls)
        seed = 100 * self.seed + i
        out = self.work_dir / f"call{i}"
        argv = [self.wl.command, "--config", str(self.config_paths[step]),
                "--seed", str(seed), "--jobs", "1", "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        self.calls.append((out, seed))
        if code != 0:
            self.errors.append(f"dfrcbeam {' '.join(argv)} exited with {code}")

    def measure(self, seconds: float, traced: bool) -> Tracer:
        """Run whole sweeps; a traced run makes exactly one."""
        n_sweeps = 1 if traced else max(1, int(seconds / self.wl.nominal_s + 0.5))
        tracer = Tracer()
        self._time_ops(tracer)
        if traced:
            self._install_trace(tracer)
        try:
            for _ in range(n_sweeps):
                t0 = time.perf_counter()
                for step in range(len(self.wl.steps)):
                    self._call(step)
                self.sweep_s.append(time.perf_counter() - t0)
        finally:
            tracer.uninstall()
        return tracer

    # -- checks and quality

    def check(self):
        for sweep in self.sweeps():
            dirs = [out for out, _ in sweep]
            seed = sweep[0][1]
            try:
                if self.name == "se_vs_snr":
                    errs = checks.check_se_vs_snr(
                        dirs, lambda snr, s: se_capacity(self.config, snr, s))
                elif self.name == "pareto":
                    errs = checks.check_pareto(dirs[0],
                                               *mi_bounds(self.config, seed))
                else:
                    errs = checks.check_doa(dirs[0])
            except (OSError, KeyError, ValueError) as e:
                errs = [f"unreadable output: {e!r}"]
            self.errors.extend(f"sweep from seed {seed}: {e}" for e in errs)
        for analog in self.analogs:
            self.errors.extend(checks.analog_violations(
                analog.matrix, analog.spec.kind,
                self.config.get_int("dims.n_tx_rf"),
                self.config.get_int("arch.n_phase_shifters")))

    def quality(self) -> dict:
        """Quality metrics over all sweeps (deterministic given the seed)."""
        values = {name: NOT_APPLICABLE for name in QUALITY}
        if self.name == "se_vs_snr":
            rows = self._rows("se_vs_snr.csv")
            for col in ("se_fd", "se_admm", "se_twostage"):
                values[f"{col}_bits"] = float(np.mean([float(r[col])
                                                       for r in rows]))
        elif self.name == "pareto":
            points = {}     # (architecture, weight) -> [(mi_comm, mi_radar)]
            for r in self._rows("pareto.csv"):
                points.setdefault((r["architecture"], r["weight"]), []).append(
                    (float(r["mi_comm"]), float(r["mi_radar"])))
            fronts = {}     # architecture -> median point per weight
            for (kind, _), pts in points.items():
                fronts.setdefault(kind, []).append(np.median(pts, axis=0))
            values["pareto_hv_bits2"] = sum(checks.front_area(f)
                                            for f in fronts.values())
        return values

    def _rows(self, name: str) -> list[dict]:
        return [r for out, _ in self.calls for r in checks.read_rows(out / name)]


def _channel(config, seed: int) -> np.ndarray:
    return gen_channel(config.dims(), config.cluster_model(), seed).h


def se_capacity(config, snr_db: float, seed: int) -> float:
    """Carrier-averaged capacity of the seed's channel at snr_db (bits/s/Hz)."""
    power = config.get_float("power.total")
    noise = power * 10.0 ** (-snr_db / 10.0)
    return float(np.mean(checks.carrier_capacities(
        _channel(config, seed), power, noise)))


def mi_bounds(config, seed: int) -> tuple[float, float]:
    """Caps on the per-seed radar and comm mutual information (bits)."""
    power = config.get_float("power.total")
    noise = config.get_float("noise.variance")
    radar = checks.radar_mi_bound(
        config.get_list("scene.target_angles"),
        config.get_list("scene.target_gains"),
        config.get_int("dims.n_tx_antennas"),
        config.get_int("dims.n_subcarriers"), power, noise)
    comm = float(np.sum(checks.carrier_capacities(
        _channel(config, seed), power, noise)))
    return radar, comm


def machine_record(blas_threads: int) -> str:
    return (f"nproc={os.cpu_count()} blas_threads={blas_threads} "
            f"python={platform.python_version()} numpy={np.__version__} "
            f"scipy={scipy.__version__}")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload: str, seed: int, seconds: float, traced: bool,
        work_root: Path, setup_clock, blas_threads: int) -> tuple[dict, list]:
    """Run one workload; returns (result object, error list)."""
    work_dir = work_root / f"{workload}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        bench = Run(workload, seed, work_dir)
        setup_s = setup_clock()
        tracer = bench.measure(seconds, traced)
        peak = _peak_rss_mb()
        bench.check()
        if not bench.op_s:
            bench.errors.append(f"no {bench.wl.op} operation ran")
        if traced:
            idle = [s for s in bench.wl.spans if tracer.spans[s][0] == 0]
            bench.errors.extend(f"span {s} made no calls" for s in idle)
        try:
            quality = bench.quality()
        except (OSError, KeyError, ValueError) as e:
            bench.errors.append(f"quality metrics: {e!r}")
            quality = {}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):   # still in use by another run
            work_root.rmdir()
    print(f"# {workload}: {machine_record(blas_threads)} "
          f"sweeps={len(bench.sweep_s)} "
          f"seeds={[seed for _, seed in bench.calls]} ops={len(bench.op_s)}")
    if traced:
        metrics = {}
        for s in SPANS:
            calls, total, self_s = tracer.spans.get(s, (0, 0.0, 0.0))
            metrics[f"{s}.calls"] = (calls, "count")
            metrics[f"{s}.total_s"] = (total, "s")
            metrics[f"{s}.self_s"] = (self_s, "s")
        for c in COUNTS:
            metrics[c] = (tracer.counts.get(c, 0), "count")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(bench.sweep_s), "s"),
            "op_p50_s": (statistics.median(bench.op_s or [float("nan")]), "s"),
            "peak_rss_mb": (peak, "MB"),
        }
        for name, unit in QUALITY.items():
            metrics[name] = (quality.get(name, float("nan")), unit)
    result = {
        "correct": not bench.errors,
        "attempted": len(bench.op_s),
        "failed": bench.op_failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, bench.errors
