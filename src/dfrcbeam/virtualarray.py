"""Multi-carrier virtual array: K*M_r data model, MUSIC DOA and study harness.

Matched filtering the radar returns against the K orthogonal carrier
waveforms at an M_r-channel receiver yields one length K*M_r snapshot per
pulse with model vector v(u) = (D^T a_t(u)) kron a_r(u), where column k of D
is the precoded probe x_k transmitted on carrier k. More carriers enlarge
the virtual aperture (better resolution) while spreading the fixed transmit
power over more virtual elements (less power per element).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .architecture import ArchitectureSpec, random_feasible
from .channel import SinGrid, steering_matrix
from .metrics import (HybridPrecoder, RadarScene, fisher_information,
                      virtual_mean_vector)


@dataclass
class VirtualArrayModel:
    """Virtual snapshots plus the transmit factor that generated them.

    snapshot: one length K*M_r vector (the first pulse). snapshots stacks
    all pulses column-wise for covariance estimation.
    """

    snapshot: np.ndarray
    snapshots: np.ndarray
    transmit_factor: np.ndarray     # D, shape (N_t, K)
    n_radar_rx: int
    noise_variance: float

    def __post_init__(self):
        dim = self.transmit_factor.shape[1] * self.n_radar_rx
        if self.snapshot.shape != (dim,):
            raise ValueError(f"snapshot length {self.snapshot.shape}, expected {dim}")
        if self.snapshots.shape[0] != dim:
            raise ValueError("snapshots must have K*M_r rows")

    @property
    def n_snapshots(self) -> int:
        return self.snapshots.shape[1]


def build_virtual_data(p: HybridPrecoder, scene: RadarScene, symbols,
                       noise_variance: float, seed: int, n_radar_rx: int,
                       n_snapshots: int = 1,
                       phase_fluctuation: bool = True) -> VirtualArrayModel:
    """Simulate matched-filtered virtual snapshots for the scene's targets.

    symbols: per-carrier probing symbols, shape (K, N_s); unit-modulus
    random symbols are drawn from the seed when None. Target gain phases
    fluctuate independently per pulse (so multi-target covariances have
    full signal rank) unless phase_fluctuation is False. Deterministic
    given (inputs, seed).
    """
    rng = np.random.default_rng(int(seed))
    t_eff = p.effective()                       # (K, N_t, N_s)
    K, nt, ns = t_eff.shape
    if symbols is None:
        symbols = np.exp(2j * np.pi * rng.uniform(size=(K, ns)))
    symbols = np.asarray(symbols, dtype=complex)
    d = np.einsum("kts,ks->tk", t_eff, symbols) / np.sqrt(ns)
    dim = K * n_radar_rx
    vs = np.stack([virtual_mean_vector(d, n_radar_rx, u)
                   for u in scene.target_angles], axis=1)   # (dim, Q)
    gains = scene.target_gains
    snaps = np.empty((dim, n_snapshots), dtype=complex)
    for t in range(n_snapshots):
        g = gains.copy()
        if phase_fluctuation:
            g = g * np.exp(2j * np.pi * rng.uniform(size=g.shape))
        noise = (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        noise *= np.sqrt(noise_variance / 2.0)
        snaps[:, t] = vs @ g + noise
    return VirtualArrayModel(snapshot=snaps[:, 0].copy(), snapshots=snaps,
                             transmit_factor=d, n_radar_rx=int(n_radar_rx),
                             noise_variance=float(noise_variance))


def virtual_manifold(transmit_factor: np.ndarray, n_radar_rx: int, us) -> np.ndarray:
    """Virtual model vectors for many angles at once, shape (len(us), K*M_r)."""
    d = np.asarray(transmit_factor)
    tx = steering_matrix(us, d.shape[0]) @ d            # (G, K)
    rx = steering_matrix(us, n_radar_rx)                # (G, M_r)
    return (tx[:, :, None] * rx[:, None, :]).reshape(len(tx), -1)


def _noise_subspace(model: VirtualArrayModel, n_sources: int) -> np.ndarray:
    dim = model.snapshots.shape[0]
    if n_sources >= dim:
        raise ValueError("need n_sources < K * M_r")
    if model.n_snapshots < dim:
        raise ValueError("need at least K * M_r snapshots for the covariance")
    cov = model.snapshots @ model.snapshots.conj().T / model.n_snapshots
    cov = 0.5 * (cov + cov.conj().T)
    _, vecs = np.linalg.eigh(cov)           # ascending eigenvalues
    return vecs[:, :dim - n_sources]


def music_spectrum(model: VirtualArrayModel, grid: SinGrid,
                   n_sources: int) -> np.ndarray:
    """Norm-weighted MUSIC pseudo-spectrum ||v||^2 / ||E_n^H v||^2 on the grid.

    The virtual manifold norm varies with angle (the transmit factor is not
    omnidirectional), so the spectrum is normalized by ||v(u)||^2 to keep
    peaks at subspace orthogonality rather than at transmit-gain maxima.
    """
    en = _noise_subspace(model, n_sources)
    v = virtual_manifold(model.transmit_factor, model.n_radar_rx, grid.points)
    num = np.sum(np.abs(v) ** 2, axis=1)
    den = np.sum(np.abs(v @ np.conj(en)) ** 2, axis=1)   # rows ||E_n^H v||^2
    return num / (den + 1e-300)


def music_value(en, transmit_factor, n_radar_rx, u):
    """Spectrum value at one angle given the noise subspace en."""
    v = virtual_mean_vector(transmit_factor, n_radar_rx, float(u))
    den = np.sum(np.abs(en.conj().T @ v) ** 2)
    return float(np.sum(np.abs(v) ** 2) / (den + 1e-300))


def music_peaks(spectrum: np.ndarray, grid: SinGrid, n_sources: int) -> np.ndarray:
    """Angles of the n_sources largest local maxima (grid endpoints allowed)."""
    s = np.asarray(spectrum)
    inner = (s[1:-1] >= s[:-2]) & (s[1:-1] >= s[2:])
    idx = np.flatnonzero(inner) + 1
    if s[0] > s[1]:
        idx = np.append(idx, 0)
    if s[-1] > s[-2]:
        idx = np.append(idx, s.size - 1)
    if idx.size == 0:
        idx = np.array([int(np.argmax(s))])
    top = idx[np.argsort(s[idx])[::-1][:n_sources]]
    return np.sort(grid.points[top])


def _refined_peak(en, transmit_factor, m_r, u0, half_width):
    """Continuous refinement of a spectrum peak around grid point u0."""
    lo = max(-1.0, u0 - half_width)
    hi = min(1.0, u0 + half_width)

    def neg(u):
        return -music_value(en, transmit_factor, m_r, u)

    res = minimize_scalar(neg, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-7})
    return float(res.x)


# -- probing precoder for the study -------------------------------------------

def probing_precoder(n_tx: int, n_carriers: int, power: float,
                     seed: int) -> HybridPrecoder:
    """Random wideband probe: per-carrier random directions at power P/K.

    Uses a full-connection analog stage with N_rf = N_t so the per-carrier
    probes span the whole array (maximal carrier diversity for the virtual
    aperture).
    """
    rng = np.random.default_rng(int(seed))
    arch = ArchitectureSpec(kind="full", n_tx_antennas=n_tx, n_tx_rf=n_tx)
    analog = random_feasible(arch, seed)
    digital = (rng.standard_normal((n_carriers, n_tx, 1))
               + 1j * rng.standard_normal((n_carriers, n_tx, 1)))
    return HybridPrecoder.from_parts(analog, digital, power, normalize=True)


# -- resolution and accuracy study --------------------------------------------

@dataclass(frozen=True)
class DoaStudyConfig:
    k_values: tuple = (1, 2, 4, 8)
    snr_db_values: tuple = (25.0,)
    n_radar_rx: int = 8
    n_tx: int = 16
    power: float = 1.0
    target_u: float = 0.1
    pair_center: float = 0.0
    n_trials: int = 60
    n_resolution_trials: int = 15
    snapshot_factor: int = 10
    seed: int = 0
    power_mode: str = "total"        # "total" splits P over carriers
    bisect_tol: float = 0.005
    delta_max: float = 0.6

    def __post_init__(self):
        if len(self.k_values) == 0 or len(self.snr_db_values) == 0:
            raise ValueError("sweep lists must be nonempty")
        if self.power_mode not in ("total", "per_carrier"):
            raise ValueError("power_mode must be 'total' or 'per_carrier'")


def _study_scene(angles, gains):
    grid = SinGrid(np.linspace(-1.0, 1.0, 3))
    return RadarScene(target_angles=np.asarray(angles, dtype=float),
                      target_gains=np.asarray(gains, dtype=complex),
                      mainlobe=[(-1.0, 0.0)], grid=grid)


def _cell_power(cfg: DoaStudyConfig, k: int) -> float:
    if cfg.power_mode == "total":
        return cfg.power
    return cfg.power * k      # fixed power per carrier


def two_source_resolved(cfg: DoaStudyConfig, k: int, sigma2: float,
                        delta: float, seed: int) -> bool:
    """Dip criterion: spectrum lower midway between the sources than at both."""
    p = probing_precoder(cfg.n_tx, k, _cell_power(cfg, k), seed)
    u1 = cfg.pair_center - delta / 2.0
    u2 = cfg.pair_center + delta / 2.0
    scene = _study_scene([u1, u2], [1.0, 1.0])
    n_snap = cfg.snapshot_factor * k * cfg.n_radar_rx
    model = build_virtual_data(p, scene, None, sigma2, seed, cfg.n_radar_rx,
                               n_snapshots=n_snap)
    en = _noise_subspace(model, 2)
    d, mr = model.transmit_factor, model.n_radar_rx
    s1 = music_value(en, d, mr, u1)
    s2 = music_value(en, d, mr, u2)
    smid = music_value(en, d, mr, cfg.pair_center)
    return smid < min(s1, s2)


def resolution_threshold(cfg: DoaStudyConfig, k: int, sigma2: float,
                         seed: int) -> float:
    """Smallest resolvable source separation via bisection (majority vote)."""
    def resolved(delta: float) -> bool:
        hits = sum(two_source_resolved(cfg, k, sigma2, delta, seed * 7919 + t)
                   for t in range(cfg.n_resolution_trials))
        return hits * 2 >= cfg.n_resolution_trials

    lo, hi = cfg.bisect_tol, cfg.delta_max
    if resolved(lo):
        return lo
    if not resolved(hi):
        return np.inf
    while hi - lo > cfg.bisect_tol:
        mid = 0.5 * (lo + hi)
        if resolved(mid):
            hi = mid
        else:
            lo = mid
    return hi


def single_source_rmse(cfg: DoaStudyConfig, k: int, sigma2: float,
                       seed: int):
    """Monte Carlo RMSE of refined MUSIC peak picking plus the matching CRLB.

    One probing precoder per cell (one system, many pulses); trials vary
    only noise and gain phases, so the cell's CRLB is a single number.
    """
    grid = SinGrid(np.linspace(-1.0, 1.0, 801))
    half = 2.0 * grid.spacing
    n_snap = cfg.snapshot_factor * k * cfg.n_radar_rx
    scene = _study_scene([cfg.target_u], [1.0])
    p = probing_precoder(cfg.n_tx, k, _cell_power(cfg, k), seed)
    rng = np.random.default_rng(seed)
    symbols = np.exp(2j * np.pi * rng.uniform(size=(k, p.n_streams)))
    errs = []
    transmit_factor = None
    for t in range(cfg.n_trials):
        model = build_virtual_data(p, scene, symbols, sigma2,
                                   seed * 104729 + t, cfg.n_radar_rx,
                                   n_snapshots=n_snap)
        transmit_factor = model.transmit_factor
        en = _noise_subspace(model, 1)
        spec = music_spectrum(model, grid, 1)
        u_hat = float(music_peaks(spec, grid, 1)[0])
        u_hat = _refined_peak(en, model.transmit_factor, model.n_radar_rx,
                              u_hat, half)
        errs.append((u_hat - cfg.target_u) ** 2)
    fim = fisher_information(transmit_factor, cfg.n_radar_rx, [cfg.target_u],
                             [1.0], sigma2, n_snapshots=n_snap)
    crlb = float(np.linalg.inv(fim)[0, 0])
    return float(np.sqrt(np.mean(errs))), float(np.sqrt(crlb))


def doa_study(cfg: DoaStudyConfig):
    """Sweep (K, SNR) cells; returns rows of
    (k, snr_db, delta_u_threshold, rmse, crlb)."""
    rows = []
    for k in cfg.k_values:
        for snr_db in cfg.snr_db_values:
            sigma2 = cfg.power * 10.0 ** (-snr_db / 10.0)
            thr = resolution_threshold(cfg, int(k), sigma2, cfg.seed)
            rmse, crlb = single_source_rmse(cfg, int(k), sigma2, cfg.seed)
            rows.append({"k": int(k), "snr_db": float(snr_db),
                         "delta_u_threshold": thr, "rmse": rmse, "crlb": crlb})
    return rows
