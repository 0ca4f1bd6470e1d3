"""Experiment harness: flat dotted-key configs, sweep runners, CSV artifacts.

Configs are flat text files of "key = value" lines (diff-able and hash-able);
every key has a default, unknown keys are rejected, and the manifest hash
covers the merged key set so any change that affects results changes the
hash. All CSV outputs use 9 significant digits and are written in sorted
row order, so reruns with identical configs are byte-identical.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, replace

import numpy as np

from . import fileio
from .architecture import ArchitectureSpec
from .channel import ClusterModel, SinGrid, SystemDims, gen_channel, make_grid
from .metrics import (RadarScene, per_carrier_pattern, grid_mean_power,
                      radar_mi, se_of_arrays, spectral_efficiency,
                      ssme_of_pattern)
from .scalarize import EpsilonConstraint, MinMax, ObjectiveSpec, WeightedSum
from .solvers import (DesignProblem, SolverConfig, SolverError,
                      compute_normalizers, design_fully_digital,
                      factorize_two_stage, design_combiners, solve)
from .virtualarray import DoaStudyConfig, doa_study


class ConfigError(ValueError):
    pass


DEFAULTS = {
    "dims.n_tx_antennas": "32",
    "dims.n_rx_antennas": "4",
    "dims.n_tx_rf": "4",
    "dims.n_rx_rf": "2",
    "dims.n_streams": "4",
    "dims.n_users": "4",
    "dims.n_subcarriers": "8",
    "dims.n_radar_rx_rf": "8",
    "arch.kind": "full",
    "arch.n_phase_shifters": "64",
    "channel.n_clusters": "5",
    "channel.n_rays": "10",
    "channel.angle_spread": "0.05",
    "scene.target_angles": "-0.5, 0.35",
    "scene.target_gains": "1, 1",
    "scene.mainlobe": "-0.6:-0.4, 0.25:0.45",
    "grid.n_points": "181",
    "power.total": "1.0",
    "noise.variance": "0.1",
    "objective.radar_metric": "ssme",
    "objective.comm_metric": "mmse",
    "scalarization.kind": "weighted_sum",
    "scalarization.w_radar": "0.5",
    "scalarization.primary": "radar",
    "scalarization.epsilon": "1.0",
    "solver.max_iterations": "150",
    "solver.tol_primal": "1e-3",
    "solver.tol_dual": "1e-3",
    "solver.rho": "0.5",
    "solver.rho_growth": "1.02",
    "solver.ridge": "1e-12",
    "design.method": "admm",
    "sweep.weights": "0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1",
    "sweep.snrs_db": "-10, -5, 0, 5, 10",
    "sweep.k_values": "1, 2, 4, 8",
    "sweep.architectures": "full, partial, dynamic",
    "seeds": "1, 2, 3, 4, 5",
    "doa.snr_db": "25",
    "doa.n_trials": "40",
    "doa.n_resolution_trials": "11",
    "doa.n_tx": "16",
    "doa.target_u": "0.1",
    "doa.power_mode": "total",
    "output.dir": "out",
}


@dataclass
class ExperimentConfig:
    values: dict

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        merged = dict(DEFAULTS)
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected 'key = value'")
            key, value = (s.strip() for s in line.split("=", 1))
            if key not in DEFAULTS:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            merged[key] = value
        return cls(values=merged)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            with open(path) as f:
                text = f.read()
        except OSError as e:
            raise ConfigError(f"cannot read config {path}: {e}") from e
        return cls.from_text(text)

    # -- typed accessors

    def get_int(self, key: str) -> int:
        try:
            return int(self.values[key])
        except ValueError as e:
            raise ConfigError(f"{key}: expected integer") from e

    def get_float(self, key: str) -> float:
        try:
            return float(self.values[key])
        except ValueError as e:
            raise ConfigError(f"{key}: expected number") from e

    def get_str(self, key: str) -> str:
        return self.values[key]

    def get_list(self, key: str, conv=float) -> list:
        items = [s.strip() for s in self.values[key].split(",") if s.strip()]
        if key.startswith("sweep.") and not items:
            raise ConfigError(f"{key}: sweep list must be nonempty")
        try:
            return [conv(s) for s in items]
        except ValueError as e:
            raise ConfigError(f"{key}: bad list entry") from e

    def get_intervals(self, key: str) -> list:
        out = []
        for item in self.get_list(key, conv=str):
            if ":" not in item:
                raise ConfigError(f"{key}: intervals are 'lo:hi'")
            lo, hi = item.split(":", 1)
            out.append((float(lo), float(hi)))
        return out

    # -- domain objects

    def dims(self) -> SystemDims:
        try:
            return SystemDims(
                n_tx_antennas=self.get_int("dims.n_tx_antennas"),
                n_rx_antennas=self.get_int("dims.n_rx_antennas"),
                n_tx_rf=self.get_int("dims.n_tx_rf"),
                n_rx_rf=self.get_int("dims.n_rx_rf"),
                n_streams=self.get_int("dims.n_streams"),
                n_users=self.get_int("dims.n_users"),
                n_subcarriers=self.get_int("dims.n_subcarriers"),
                n_radar_rx_rf=self.get_int("dims.n_radar_rx_rf"))
        except ValueError as e:
            raise ConfigError(str(e)) from e

    def architecture(self, kind: str | None = None) -> ArchitectureSpec:
        kind = kind or self.get_str("arch.kind")
        d = self.dims()
        try:
            return ArchitectureSpec(
                kind=kind, n_tx_antennas=d.n_tx_antennas, n_tx_rf=d.n_tx_rf,
                n_phase_shifters=(self.get_int("arch.n_phase_shifters")
                                  if kind == "dynamic" else None))
        except ValueError as e:
            raise ConfigError(str(e)) from e

    def cluster_model(self) -> ClusterModel:
        try:
            return ClusterModel(n_clusters=self.get_int("channel.n_clusters"),
                                n_rays=self.get_int("channel.n_rays"),
                                angle_spread=self.get_float("channel.angle_spread"))
        except ValueError as e:
            raise ConfigError(str(e)) from e

    def grid(self) -> SinGrid:
        return make_grid(self.get_int("grid.n_points"))

    def scene(self) -> RadarScene:
        try:
            return RadarScene(
                target_angles=np.array(self.get_list("scene.target_angles")),
                target_gains=np.array(self.get_list("scene.target_gains"),
                                      dtype=complex),
                mainlobe=self.get_intervals("scene.mainlobe"),
                grid=self.grid())
        except ValueError as e:
            raise ConfigError(str(e)) from e

    def solver_config(self, seed: int) -> SolverConfig:
        try:
            return SolverConfig(
                max_iterations=self.get_int("solver.max_iterations"),
                tol_primal=self.get_float("solver.tol_primal"),
                tol_dual=self.get_float("solver.tol_dual"),
                rho=self.get_float("solver.rho"),
                rho_growth=self.get_float("solver.rho_growth"),
                ridge=self.get_float("solver.ridge"),
                seed=int(seed))
        except ValueError as e:
            raise ConfigError(str(e)) from e

    def objective(self) -> ObjectiveSpec:
        try:
            return ObjectiveSpec(radar_metric=self.get_str("objective.radar_metric"),
                                 comm_metric=self.get_str("objective.comm_metric"))
        except ValueError as e:
            raise ConfigError(str(e)) from e

    def scalarization(self):
        kind = self.get_str("scalarization.kind")
        if kind == "weighted_sum":
            w = self.get_float("scalarization.w_radar")
            if not (0.0 <= w <= 1.0):
                raise ConfigError("scalarization.w_radar must be in [0, 1]")
            return WeightedSum(w, 1.0 - w)
        if kind == "epsilon":
            return EpsilonConstraint(primary=self.get_str("scalarization.primary"),
                                     epsilon=self.get_float("scalarization.epsilon"))
        if kind == "min_max":
            return MinMax()
        raise ConfigError(f"unknown scalarization.kind {kind!r}")

    def seeds(self) -> list:
        seeds = self.get_list("seeds", conv=int)
        if not seeds:
            raise ConfigError("seeds list must be nonempty")
        return seeds

    def doa_config(self, seed: int) -> DoaStudyConfig:
        try:
            return DoaStudyConfig(
                k_values=tuple(self.get_list("sweep.k_values", conv=int)),
                snr_db_values=(self.get_float("doa.snr_db"),),
                n_radar_rx=self.get_int("dims.n_radar_rx_rf"),
                n_tx=self.get_int("doa.n_tx"),
                power=self.get_float("power.total"),
                target_u=self.get_float("doa.target_u"),
                n_trials=self.get_int("doa.n_trials"),
                n_resolution_trials=self.get_int("doa.n_resolution_trials"),
                seed=int(seed),
                power_mode=self.get_str("doa.power_mode"))
        except ValueError as e:
            raise ConfigError(str(e)) from e

    # -- reproducibility

    def canonical_text(self) -> str:
        return "\n".join(f"{k} = {self.values[k]}" for k in sorted(self.values))

    def config_hash(self) -> str:
        return fileio.sha256_of_text(self.canonical_text())

    def with_overrides(self, **kv) -> "ExperimentConfig":
        values = dict(self.values)
        for k, v in kv.items():
            if k not in DEFAULTS:
                raise ConfigError(f"unknown key {k!r}")
            values[k] = str(v)
        return ExperimentConfig(values=values)


def write_manifest(out_dir: str, config: ExperimentConfig, files: list) -> None:
    lines = [f"config_hash = {config.config_hash()}",
             f"seeds = {config.values['seeds']}"]
    lines.extend(f"file = {name}" for name in sorted(files))
    with open(f"{out_dir}/manifest.txt", "w", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def _gnuplot(out_dir: str, name: str, body: str) -> None:
    with open(f"{out_dir}/{name}", "w", newline="\n") as f:
        f.write("set datafile separator ','\nset key autotitle columnhead\n"
                + body + "\n")


# -- problem assembly ----------------------------------------------------------

def _make_problem(config: ExperimentConfig, arch_kind: str, seed: int,
                  noise_variance: float, scalarization, cfg: SolverConfig):
    """The seed's problem with its objective normalized by the two
    single-objective pre-solves; returns (problem, normalizer info)."""
    dims = config.dims()
    channels = gen_channel(dims, config.cluster_model(), seed,
                           noise_variance=noise_variance)
    base = DesignProblem(
        dims=dims, channels=channels, scene=config.scene(),
        architecture=config.architecture(arch_kind),
        objective=config.objective(), scalarization=scalarization,
        power=config.get_float("power.total"))
    objective, info = compute_normalizers(base, cfg)
    return replace(base, objective=objective), info


def _evaluate_pair(problem, result):
    """(mi_radar, mi_comm) of a hybrid design result."""
    scene = problem.scene
    sigma2 = problem.channels.noise_variance
    mi_r = radar_mi(result.precoder, scene, sigma2)
    se = spectral_efficiency(problem.channels, result.precoder, result.combiners)
    return mi_r, se * problem.dims.n_subcarriers


# -- pareto sweep --------------------------------------------------------------

def _pareto_seed_task(values: dict, seed: int):
    """All (architecture, weight) cells of one seed.

    Weights are traced with a small stepsize as a continuation: each solve
    warm-starts from the previous weight's solution, and the comm-heavy end
    of the chain starts from a factorization of the comm-only pre-solve.
    """
    config = ExperimentConfig(values=values)
    noise = config.get_float("noise.variance")
    weights = sorted(config.get_list("sweep.weights"))
    arch_kinds = config.get_list("sweep.architectures", conv=str)
    cfg = config.solver_config(seed)
    base, info = _make_problem(config, arch_kinds[0], seed, noise,
                               WeightedSum(0.5, 0.5), cfg)
    comm_fd = info["comm_result"].fully_digital
    rows = []
    for kind in arch_kinds:
        arch = config.architecture(kind)
        warm, _ = factorize_two_stage(comm_fd, arch, cfg,
                                      config.get_float("power.total"))
        init = (warm.analog.matrix, warm.digital)
        for w in weights:
            problem = replace(base, architecture=arch,
                              scalarization=WeightedSum(w, 1.0 - w))
            try:
                result = solve(problem, "admm", cfg, init=init)
                init = (result.precoder.analog.matrix, result.precoder.digital)
                mi_r, mi_c = _evaluate_pair(problem, result)
                rows.append((kind, float(w), seed, mi_r, mi_c, result.status))
            except (SolverError, np.linalg.LinAlgError) as e:
                rows.append((kind, float(w), seed, np.nan, np.nan,
                             f"failed:{type(e).__name__}"))
    return rows


def run_pareto(config: ExperimentConfig, out_dir: str, jobs: int = 1) -> list:
    """Weight sweep per architecture and seed; emits pareto.csv and medians."""
    fileio.ensure_dir(out_dir)
    seeds = config.seeds()
    rows = []
    for task_rows in _map_tasks(_pareto_seed_task, config, seeds, jobs):
        rows.extend(task_rows)
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    header = ["architecture", "weight", "seed", "mi_radar", "mi_comm", "status"]
    fileio.write_csv(f"{out_dir}/pareto.csv", header, rows)

    med_rows = []
    arch_kinds = config.get_list("sweep.architectures", conv=str)
    weights = config.get_list("sweep.weights")
    for kind in arch_kinds:
        for w in weights:
            sel = [r for r in rows if r[0] == kind and r[1] == float(w)
                   and np.isfinite(r[3])]
            if sel:
                med_rows.append((kind, float(w),
                                 float(np.median([r[3] for r in sel])),
                                 float(np.median([r[4] for r in sel]))))
    fileio.write_csv(f"{out_dir}/pareto_median.csv",
                     ["architecture", "weight", "mi_radar", "mi_comm"], med_rows)
    _gnuplot(out_dir, "pareto.gp",
             "plot 'pareto_median.csv' using 4:3 with linespoints")
    write_manifest(out_dir, config,
                   ["pareto.csv", "pareto_median.csv", "pareto.gp"])
    return rows


# -- SE vs SNR -----------------------------------------------------------------

def _se_snr_cell_task(values: dict, cell):
    snr_db, seed = cell
    config = ExperimentConfig(values=values)
    power = config.get_float("power.total")
    noise = power * 10.0 ** (-snr_db / 10.0)
    cfg = config.solver_config(seed)
    problem, _ = _make_problem(config, config.get_str("arch.kind"), seed,
                               noise, config.scalarization(), cfg)
    try:
        fd = design_fully_digital(problem, cfg)
        se_fd = _se_of_fd(problem, fd)
        hyb, _ = factorize_two_stage(fd.fully_digital, problem.architecture,
                                     cfg, problem.power)
        comb = design_combiners(problem.channels, hyb,
                                n_rx_rf=problem.dims.n_rx_rf)
        se_two = spectral_efficiency(problem.channels, hyb, comb)
        admm = solve(problem, "admm", cfg)
        se_admm = spectral_efficiency(problem.channels, admm.precoder,
                                      admm.combiners)
        return (float(snr_db), seed, se_fd, se_admm, se_two, "ok")
    except (SolverError, np.linalg.LinAlgError) as e:
        return (float(snr_db), seed, np.nan, np.nan, np.nan,
                f"failed:{type(e).__name__}")


def _se_of_fd(problem, fd_result):
    return se_of_arrays(problem.channels.h, fd_result.fully_digital,
                        fd_result.combiners.effective(),
                        problem.channels.noise_variance)


def run_se_vs_snr(config: ExperimentConfig, out_dir: str, jobs: int = 1) -> list:
    """SE of fully digital / ADMM / two-stage on identical channels per SNR."""
    fileio.ensure_dir(out_dir)
    cells = [(snr, seed) for snr in config.get_list("sweep.snrs_db")
             for seed in config.seeds()]
    rows = list(_map_tasks(_se_snr_cell_task, config, cells, jobs))
    rows.sort(key=lambda r: (r[0], r[1]))
    header = ["snr_db", "seed", "se_fd", "se_admm", "se_twostage", "status"]
    fileio.write_csv(f"{out_dir}/se_vs_snr.csv", header, rows)

    med = []
    for snr in config.get_list("sweep.snrs_db"):
        sel = [r for r in rows if r[0] == float(snr) and np.isfinite(r[2])]
        if sel:
            med.append((float(snr),
                        float(np.median([r[2] for r in sel])),
                        float(np.median([r[3] for r in sel])),
                        float(np.median([r[4] for r in sel]))))
    fileio.write_csv(f"{out_dir}/se_vs_snr_median.csv",
                     ["snr_db", "se_fd", "se_admm", "se_twostage"], med)
    _gnuplot(out_dir, "se_vs_snr.gp",
             "plot for [i=2:4] 'se_vs_snr_median.csv' using 1:i with linespoints")
    write_manifest(out_dir, config,
                   ["se_vs_snr.csv", "se_vs_snr_median.csv", "se_vs_snr.gp"])
    return rows


# -- beampattern ---------------------------------------------------------------

def run_beampattern(config: ExperimentConfig, out_dir: str, jobs: int = 1):
    """Space-frequency spectra of the three designs on the first seed."""
    fileio.ensure_dir(out_dir)
    seed = config.seeds()[0]
    noise = config.get_float("noise.variance")
    cfg = config.solver_config(seed)
    problem, _ = _make_problem(config, config.get_str("arch.kind"), seed,
                               noise, config.scalarization(), cfg)
    scene = problem.scene
    grid = scene.grid
    power = problem.power

    fd = design_fully_digital(problem, cfg)
    hyb_two, _ = factorize_two_stage(fd.fully_digital, problem.architecture,
                                     cfg, power)
    admm = solve(problem, "admm", cfg)
    designs = {
        "fully_digital": fd.fully_digital,
        "two_stage": hyb_two.effective(),
        "admm": admm.precoder.effective(),
    }
    files = []
    summary = []
    main = scene.mainlobe_mask()
    for name in sorted(designs):
        t_eff = designs[name]
        per_k = per_carrier_pattern(t_eff, grid.points)   # (K, G)
        total = per_k.sum(axis=0)
        rows = []
        for g, u in enumerate(grid.points):
            for k in range(per_k.shape[0]):
                rows.append((u, k + 1, 10.0 * np.log10(max(per_k[k, g], 1e-300)),
                             10.0 * np.log10(max(total[g], 1e-300))))
        fname = f"beampattern_{name}.csv"
        fileio.write_csv(f"{out_dir}/{fname}",
                         ["u", "k", "power_db", "total_power_db"], rows)
        files.append(fname)
        ss, _beta = ssme_of_pattern(total, scene.desired)
        num = np.trapezoid(np.where(main, total, 0.0), grid.points)
        den = np.trapezoid(total, grid.points)
        summary.append((name, ss, num / den, grid_mean_power(total, grid), power))
    fileio.write_csv(f"{out_dir}/beampattern_summary.csv",
                     ["method", "ssme", "mainlobe_fraction", "grid_mean_power",
                      "power_budget"], summary)
    files.append("beampattern_summary.csv")
    _gnuplot(out_dir, "beampattern.gp",
             "plot 'beampattern_admm.csv' using 1:4 with lines")
    files.append("beampattern.gp")
    write_manifest(out_dir, config, files)
    return summary


# -- DOA study -----------------------------------------------------------------

def run_doa(config: ExperimentConfig, out_dir: str, jobs: int = 1) -> list:
    fileio.ensure_dir(out_dir)
    seed = config.seeds()[0]
    rows = doa_study(config.doa_config(seed))
    table = [(r["k"], r["snr_db"], r["delta_u_threshold"], r["rmse"], r["crlb"])
             for r in rows]
    table.sort(key=lambda r: (r[0], r[1]))
    fileio.write_csv(f"{out_dir}/doa.csv",
                     ["k", "snr_db", "delta_u_threshold", "rmse", "crlb"], table)
    _gnuplot(out_dir, "doa.gp", "plot 'doa.csv' using 1:3 with linespoints")
    write_manifest(out_dir, config, ["doa.csv", "doa.gp"])
    return rows


# -- single design export --------------------------------------------------------

def run_design(config: ExperimentConfig, out_dir: str, jobs: int = 1) -> str:
    """Design one beamformer and export matrices plus residual traces."""
    fileio.ensure_dir(out_dir)
    seed = config.seeds()[0]
    noise = config.get_float("noise.variance")
    cfg = config.solver_config(seed)
    method = config.get_str("design.method")
    if method not in ("admm", "two_stage"):
        raise ConfigError("design.method must be 'admm' or 'two_stage'")
    problem, _ = _make_problem(config, config.get_str("arch.kind"), seed,
                               noise, config.scalarization(), cfg)
    result = solve(problem, method, cfg)
    fileio.save_complex_matrix(f"{out_dir}/analog.csv", result.precoder.analog.matrix)
    fileio.save_indexed_matrices(f"{out_dir}/digital.csv",
                                 result.precoder.digital, "k")
    n = max(len(result.objective_trace), len(result.primal_trace))
    trace_rows = []
    for i in range(n):
        trace_rows.append((
            i,
            result.primal_trace[i] if i < len(result.primal_trace) else np.nan,
            result.dual_trace[i] if i < len(result.dual_trace) else np.nan,
            result.objective_trace[i] if i < len(result.objective_trace) else np.nan))
    fileio.write_csv(f"{out_dir}/traces.csv",
                     ["iter", "primal", "dual", "objective"], trace_rows)
    mi_r, mi_c = _evaluate_pair(problem, result)
    fileio.write_csv(f"{out_dir}/summary.csv",
                     ["method", "status", "seed", "mi_radar", "mi_comm"],
                     [(method, result.status, seed, mi_r, mi_c)])
    write_manifest(out_dir, config,
                   ["analog.csv", "digital.csv", "traces.csv", "summary.csv"])
    return result.status


# -- task mapping ----------------------------------------------------------------

def _map_tasks(fn, config: ExperimentConfig, cells, jobs: int):
    """Run fn(config.values, cell) per cell, optionally in worker processes.

    Results are yielded in cell order regardless of the job count.
    """
    if jobs <= 1:
        for cell in cells:
            yield fn(config.values, cell)
        return
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as ex:
        futures = [ex.submit(fn, config.values, cell) for cell in cells]
        for fut in futures:
            yield fut.result()
