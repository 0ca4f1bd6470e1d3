"""Output checks for the benchmark workloads.

Every bound here is computed apart from the design code: capacities come
from plain numpy SVDs of the generated channel and of the target steering
rows, and the analog feasibility rules are restated from the architecture
definitions rather than taken from ``feasibility_check``. Each check returns
a list of error strings; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

REL_TOL = 1e-9              # float slack on the capacity bounds
DOA_BISECT_TOL = 0.005      # DoaStudyConfig.bisect_tol at the pinned config
DOA_DELTA_MAX = 0.6         # DoaStudyConfig.delta_max at the pinned config
DOA_RMSE_CRLB = (0.5, 2.0)  # accepted range of RMSE / sqrt(CRLB)
UNIT_TOL = 1e-9             # analog entries: |f| = 1 on the support, 0 off it


def read_rows(path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def waterfill_capacity(sq_singular: np.ndarray, power: float,
                       noise: float) -> float:
    """Capacity in bits of parallel channels with gains s^2 / noise under a
    total power budget, by water-filling."""
    g = np.sort(np.asarray(sq_singular, dtype=float))[::-1] / noise
    g = g[g > 0]
    for n in range(g.size, 0, -1):
        level = (power + np.sum(1.0 / g[:n])) / n
        if level > 1.0 / g[n - 1]:
            return float(np.sum(np.log2(level * g[:n])))
    return 0.0


def carrier_capacities(h: np.ndarray, power: float, noise: float) -> np.ndarray:
    """Per-carrier cooperative capacity of the stacked (U*N_r x N_t) channel
    at power P/K; h has shape (K, U, N_r, N_t)."""
    k, u, nr, nt = h.shape
    out = np.empty(k)
    for i in range(k):
        s = np.linalg.svd(h[i].reshape(u * nr, nt), compute_uv=False)
        out[i] = waterfill_capacity(s ** 2, power / k, noise)
    return out


def steering_rows(us, n: int) -> np.ndarray:
    m = np.arange(n)
    return np.exp(1j * math.pi * np.outer(np.asarray(us, dtype=float), m))


def radar_mi_bound(angles, gains, n_tx: int, n_carriers: int, power: float,
                   noise: float) -> float:
    """K times the water-filling capacity of diag(alpha) A at power P/K."""
    b = np.asarray(gains, dtype=complex)[:, None] * steering_rows(angles, n_tx)
    s = np.linalg.svd(b, compute_uv=False)
    return n_carriers * waterfill_capacity(s ** 2, power / n_carriers, noise)


def front_area(points) -> float:
    """Area dominated by (x, y) points, both maximized, reference (0, 0)."""
    area, y_top = 0.0, 0.0
    for x, y in sorted(points, key=lambda p: (-p[0], -p[1])):
        if y > y_top:
            area += x * (y - y_top)
            y_top = y
    return area


def _floats(row, keys):
    return [float(row[k]) for k in keys]


def check_se_vs_snr(out_dirs, capacity) -> list[str]:
    """Check the cells of one SNR sweep, written to one or more directories.

    capacity(snr_db, seed) -> carrier-averaged capacity of the cell's channel
    in bits/s/Hz.
    """
    errors = []
    methods = ("se_fd", "se_admm", "se_twostage")
    rows = [r for d in out_dirs for r in read_rows(Path(d) / "se_vs_snr.csv")]
    if not rows:
        return ["se_vs_snr.csv has no rows"]
    for row in rows:
        cell = f"snr {row['snr_db']} seed {row['seed']}"
        if row["status"] != "ok":
            errors.append(f"{cell}: status {row['status']}")
            continue
        cap = capacity(float(row["snr_db"]), int(row["seed"]))
        for m, v in zip(methods, _floats(row, methods)):
            if not (math.isfinite(v) and v > 0):
                errors.append(f"{cell}: {m} = {v} is not finite and > 0")
            elif v > cap * (1 + REL_TOL):
                errors.append(f"{cell}: {m} = {v} exceeds capacity {cap}")
    med = sorted((r for d in out_dirs
                  for r in read_rows(Path(d) / "se_vs_snr_median.csv")),
                 key=lambda r: float(r["snr_db"]))
    for m in methods:
        vals = [float(r[m]) for r in med]
        if any(b <= a for a, b in zip(vals, vals[1:])):
            errors.append(f"median {m} does not rise with SNR: {vals}")
    return errors


def check_pareto(out_dir, radar_bound: float, comm_bound: float) -> list[str]:
    """radar_bound and comm_bound are the per-seed mutual-information caps."""
    errors = []
    rows = read_rows(Path(out_dir) / "pareto.csv")
    if not rows:
        return ["pareto.csv has no rows"]
    for row in rows:
        cell = f"{row['architecture']} w {row['weight']} seed {row['seed']}"
        if row["status"].startswith("failed"):
            errors.append(f"{cell}: status {row['status']}")
            continue
        mi_r, mi_c = _floats(row, ("mi_radar", "mi_comm"))
        if not (math.isfinite(mi_r) and math.isfinite(mi_c)):
            errors.append(f"{cell}: non-finite mutual information")
            continue
        if mi_r > radar_bound * (1 + REL_TOL):
            errors.append(f"{cell}: mi_radar {mi_r} exceeds bound {radar_bound}")
        if mi_c > comm_bound * (1 + REL_TOL):
            errors.append(f"{cell}: mi_comm {mi_c} exceeds bound {comm_bound}")
    return errors


def check_doa(out_dir) -> list[str]:
    errors = []
    rows = sorted(read_rows(Path(out_dir) / "doa.csv"), key=lambda r: int(r["k"]))
    if not rows:
        return ["doa.csv has no rows"]
    lo, hi = DOA_RMSE_CRLB
    for row in rows:
        k = row["k"]
        thr, rmse, crlb = _floats(row, ("delta_u_threshold", "rmse", "crlb"))
        if not (math.isfinite(crlb) and crlb > 0):
            errors.append(f"k {k}: crlb {crlb} is not finite and > 0")
            continue
        if not DOA_BISECT_TOL <= thr <= DOA_DELTA_MAX:
            errors.append(f"k {k}: threshold {thr} outside "
                          f"[{DOA_BISECT_TOL}, {DOA_DELTA_MAX}]")
        if not lo <= rmse / crlb <= hi:
            errors.append(f"k {k}: rmse/crlb {rmse / crlb} outside [{lo}, {hi}]")
    thr = [float(r["delta_u_threshold"]) for r in rows]
    if any(b > a for a, b in zip(thr, thr[1:])):
        errors.append(f"threshold increases with K: {thr}")
    return errors


def analog_violations(f: np.ndarray, kind: str, n_rf: int,
                      n_phase_shifters: int) -> list[str]:
    """Feasibility of an analog precoder restated from the architecture
    definitions: unit modulus on the support; full uses every entry,
    partial gives chain i the i-th contiguous block of N_t / N_rf antennas,
    dynamic gives each chain exactly L / N_rf antennas."""
    f = np.asarray(f)
    nt = f.shape[0]
    if f.shape != (nt, n_rf):
        return [f"{kind}: analog shape {f.shape}, expected ({nt}, {n_rf})"]
    mag = np.abs(f)
    on = mag > UNIT_TOL
    errors = []
    if np.any(np.abs(mag[on] - 1.0) > UNIT_TOL):
        errors.append(f"{kind}: entry off unit modulus")
    if kind == "full":
        expected = np.ones((nt, n_rf), dtype=bool)
    elif kind == "partial":
        block = nt // n_rf
        expected = np.zeros((nt, n_rf), dtype=bool)
        for i in range(n_rf):
            expected[i * block:(i + 1) * block, i] = True
    elif kind == "dynamic":
        counts = on.sum(axis=0)
        if np.any(counts != n_phase_shifters // n_rf):
            errors.append(f"dynamic: shifters per chain {counts.tolist()}, "
                          f"expected {n_phase_shifters // n_rf}")
        return errors
    else:
        return [f"unknown architecture {kind!r}"]
    if np.any(on != expected):
        errors.append(f"{kind}: support differs from the architecture pattern")
    return errors
