"""Radar and communication figures of merit for a designed transmit chain.

Beampattern convention (half-wavelength ULA, sin-space angle u):

    P(u) = sum_k || a(u)^T F_rf F_d[k] ||^2,  a_m(u) = exp(j*pi*m*u)

which equals the quadratic form a^T F_rf (sum_k F_d F_d^H) F_rf^H a^* and is
real and nonnegative by construction. The grid mean of P over [-1, 1] is
taken in the trapezoidal sense; by orthogonality of complex exponentials it
equals the total transmit power for any precoder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .architecture import AnalogPrecoder, feasibility_check
from .channel import ChannelSet, SinGrid, steering_matrix, steering_vector

PSL_FLOOR_DB = -300.0


class ContractError(ValueError):
    """A precondition on precoder/combiner feasibility was violated."""


# -- designed objects ---------------------------------------------------------

@dataclass
class HybridPrecoder:
    """Analog matrix plus per-subcarrier digital matrices and a power budget.

    digital has shape (K, N_rf, N_s); the per-subcarrier product
    F_rf @ digital[k] must carry power P/K (checked to 1e-8).
    """

    analog: AnalogPrecoder
    digital: np.ndarray
    power: float

    def __post_init__(self):
        self.digital = np.asarray(self.digital, dtype=complex)
        if self.digital.ndim != 3:
            raise ValueError("digital must have shape (K, N_rf, N_s)")
        if self.digital.shape[1] != self.analog.matrix.shape[1]:
            raise ValueError("digital rows must match analog RF-chain count")
        if self.power <= 0:
            raise ValueError("power budget must be positive")
        per = self.per_carrier_power()
        target = self.power / self.n_subcarriers
        if np.any(np.abs(per - target) > 1e-8 * max(1.0, target)):
            raise ValueError(
                f"per-subcarrier power {per} violates budget {target:.6g}")

    @property
    def n_subcarriers(self) -> int:
        return self.digital.shape[0]

    @property
    def n_streams(self) -> int:
        return self.digital.shape[2]

    def effective(self) -> np.ndarray:
        """Per-carrier effective precoders F_rf @ F_d[k], shape (K, N_t, N_s)."""
        return np.einsum("tr,krs->kts", self.analog.matrix, self.digital)

    def per_carrier_power(self) -> np.ndarray:
        t = self.effective()
        return np.sum(np.abs(t) ** 2, axis=(1, 2))

    @classmethod
    def from_parts(cls, analog: AnalogPrecoder, digital, power: float,
                   normalize: bool = True) -> "HybridPrecoder":
        """Build a precoder, optionally rescaling each digital matrix to budget."""
        if normalize:
            digital = scale_to_budget(digital, power, analog.matrix)
        else:
            digital = np.array(digital, dtype=complex)
        return cls(analog=analog, digital=digital, power=float(power))


def scale_to_budget(x, power: float, analog=None) -> np.ndarray:
    """Copy of the per-carrier stack x (K, ., N_s), each carrier scaled so
    that its effective precoder (analog @ x[k], or x[k] without an analog
    stage) carries the per-carrier budget P/K. A zero carrier raises."""
    out = np.array(x, dtype=complex)
    target = np.sqrt(power / out.shape[0])
    for k in range(out.shape[0]):
        nrm = np.linalg.norm(out[k] if analog is None else analog @ out[k])
        if nrm == 0:
            raise ValueError(f"carrier {k}: zero effective precoder")
        out[k] *= target / nrm
    return out


@dataclass
class HybridCombiner:
    """Per-user analog combiners and per-(carrier, user) digital combiners.

    analog: (U, N_r, N_rf_r), unit-modulus (full connection at the users).
    digital: (K, U, N_rf_r, N_s); each user forms an N_s-wide estimate.
    """

    analog: np.ndarray
    digital: np.ndarray

    def __post_init__(self):
        self.analog = np.asarray(self.analog, dtype=complex)
        self.digital = np.asarray(self.digital, dtype=complex)
        if self.analog.ndim != 3 or self.digital.ndim != 4:
            raise ValueError("analog (U,N_r,N_rf_r) and digital (K,U,N_rf_r,N_s)")
        if self.analog.shape[0] != self.digital.shape[1]:
            raise ValueError("user counts disagree between analog and digital")
        if self.analog.shape[2] != self.digital.shape[2]:
            raise ValueError("RF-chain counts disagree between analog and digital")

    def effective(self) -> np.ndarray:
        """W[k, u] = analog[u] @ digital[k, u], shape (K, U, N_r, N_s)."""
        return np.einsum("urm,kums->kurs", self.analog, self.digital)


@dataclass
class RadarScene:
    """Targets, main-lobe region and desired beampattern on a sin-space grid."""

    target_angles: np.ndarray
    target_gains: np.ndarray
    mainlobe: list
    grid: SinGrid
    desired: np.ndarray | None = None

    def __post_init__(self):
        self.target_angles = np.atleast_1d(np.asarray(self.target_angles, dtype=float))
        self.target_gains = np.atleast_1d(np.asarray(self.target_gains, dtype=complex))
        if self.target_angles.shape != self.target_gains.shape:
            raise ValueError("target angles and gains must align")
        if np.any(np.abs(self.target_angles) > 1.0):
            raise ValueError("target angles must lie in [-1, 1]")
        for lo, hi in self.mainlobe:
            if not (-1.0 <= lo < hi <= 1.0):
                raise ValueError(f"bad main-lobe interval ({lo}, {hi})")
        if self.desired is None:
            self.desired = self.mainlobe_mask().astype(float)
        else:
            self.desired = np.asarray(self.desired, dtype=float)
            if self.desired.shape != self.grid.points.shape:
                raise ValueError("desired pattern must match the grid")
            if np.any(self.desired < 0):
                raise ValueError("desired pattern must be nonnegative")

    @property
    def n_targets(self) -> int:
        return self.target_angles.size

    def mainlobe_mask(self) -> np.ndarray:
        u = self.grid.points
        mask = np.zeros(u.shape, dtype=bool)
        for lo, hi in self.mainlobe:
            mask |= (u >= lo) & (u <= hi)
        return mask


# -- stacked (K, U, ...) helpers ---------------------------------------------

def _herm(x: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the trailing two axes of a stack."""
    return np.conj(x).swapaxes(-1, -2)


def _user_columns(n_streams: int, n_users: int):
    """Index arrays (U, s_pu) and (U, N_s - s_pu) of each user's own stream
    columns and of the other users' columns."""
    cols = np.arange(n_streams).reshape(n_users, -1)
    return cols, np.stack([np.delete(cols, u, axis=0).ravel()
                           for u in range(n_users)])


def _take_columns(x: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """x (K, U, ., N_s) restricted per user u to the columns idx[u]."""
    return np.take_along_axis(x, idx[None, :, None, :], axis=3)


def _sum_in_order(values) -> float:
    """Left-to-right sum from 0.0, so a stacked result adds up bit for bit
    like a per-(k, u) loop (np.sum adds pairwise; the builtin sum
    compensates from Python 3.12)."""
    total = 0.0
    for v in np.ravel(values).tolist():
        total += v
    return total


# -- beampattern and radar metrics -------------------------------------------

def _check_feasible(p: HybridPrecoder) -> None:
    ok, report = feasibility_check(p.analog)
    if not ok:
        raise ContractError(f"infeasible analog precoder: {report[0]}")


def beampattern_at(p: HybridPrecoder, us) -> np.ndarray:
    """Transmit power at arbitrary sin-space angles; real and >= 0."""
    _check_feasible(p)
    return pattern_of_effective(p.effective(), us)


def pattern_of_effective(t_eff: np.ndarray, us, steering=None) -> np.ndarray:
    """Beampattern of per-carrier effective precoders (K, N_t, N_s); steering,
    when given, holds the rows a(u)^T for us (saves rebuilding them)."""
    return per_carrier_pattern(t_eff, us, steering).sum(axis=0)


def beampattern(p: HybridPrecoder, grid: SinGrid) -> np.ndarray:
    """Transmit beampattern sampled on the grid."""
    return beampattern_at(p, grid.points)


def per_carrier_pattern(t_eff: np.ndarray, us, steering=None) -> np.ndarray:
    """Per-carrier beampatterns, shape (K, G); steering as in
    pattern_of_effective."""
    a = steering_matrix(us, t_eff.shape[1]) if steering is None else steering
    resp = np.einsum("gt,kts->kgs", a, t_eff)
    return np.sum(np.abs(resp) ** 2, axis=2)


def grid_mean_power(pattern: np.ndarray, grid: SinGrid) -> float:
    """Trapezoidal mean of the pattern over sin-space; equals total power."""
    u = grid.points
    return float(np.trapezoid(pattern, u) / (u[-1] - u[0]))


def ssme_of_pattern(pattern: np.ndarray, desired: np.ndarray):
    """Least-squares spectrum matching error with optimal scale beta >= 0."""
    d = np.asarray(desired, dtype=float)
    p = np.asarray(pattern, dtype=float)
    dd = float(d @ d)
    beta = float(d @ p) / dd if dd > 0 else 1.0
    err = beta * d - p
    return float(err @ err) / p.size, beta


def ssme(p: HybridPrecoder, scene: RadarScene):
    """Spatial spectrum matching error of the total pattern; returns (ssme, beta)."""
    pat = beampattern(p, scene.grid)
    return ssme_of_pattern(pat, scene.desired)


def psl_isl(pattern: np.ndarray, scene: RadarScene):
    """Peak and integrated sidelobe levels in dB relative to the main lobe."""
    main = scene.mainlobe_mask()
    if not main.any():
        raise ValueError("main-lobe region does not intersect the grid")
    if main.all():
        raise ValueError("main-lobe region covers the whole grid")
    p = np.asarray(pattern, dtype=float)
    pm, ps = p[main], p[~main]

    def _ratio_db(num, den):
        if num <= 0:
            return PSL_FLOOR_DB
        if den <= 0:
            return np.inf
        return 10.0 * np.log10(num / den)

    psl = _ratio_db(float(ps.max()), float(pm.max()))
    isl = _ratio_db(float(ps.sum()), float(pm.sum()))
    return psl, isl


def radar_sinr(p: HybridPrecoder, scene: RadarScene, noise_variance: float) -> float:
    """Orthogonal-return SINR: sum_q |alpha_q|^2 P(theta_q) / sigma^2."""
    if noise_variance <= 0:
        raise ValueError("noise variance must be positive")
    if scene.n_targets < 1:
        raise ValueError("need at least one target")
    pat = beampattern_at(p, scene.target_angles)
    return float(np.sum(np.abs(scene.target_gains) ** 2 * pat) / noise_variance)


def detection_probability(sinr: float, pfa: float) -> float:
    """Coherent detection of a nonfluctuating target at fixed false-alarm rate.

    P_d = Q_1(sqrt(2*sinr), sqrt(-2*ln pfa)) via the noncentral chi-square
    survival function; monotone increasing in both arguments.
    """
    if not (0.0 < pfa <= 1.0):
        raise ValueError("pfa must lie in (0, 1]")
    if sinr < 0:
        raise ValueError("sinr must be nonnegative")
    from scipy.stats import ncx2   # ~0.5 s to import; no sweep needs it

    threshold = -2.0 * np.log(pfa)
    return float(ncx2.sf(threshold, 2, 2.0 * float(sinr)))


def radar_mi(p: HybridPrecoder, scene: RadarScene, noise_variance: float) -> float:
    """Radar mutual information sum_k log2 det(I + T_k^H T_k / sigma^2).

    T_k = diag(alpha) A F_rf F_d[k] with A stacking target steering rows
    a(theta_q)^T, so the single-target single-carrier case reduces to
    log2(1 + |alpha|^2 P(theta_1) / sigma^2).
    """
    t_eff = p.effective()
    a = steering_matrix(scene.target_angles, t_eff.shape[1])   # (Q, N_t)
    return radar_mi_of_arrays(scene.target_gains[:, None] * a, t_eff,
                              noise_variance)


def radar_mi_of_arrays(b: np.ndarray, t_eff: np.ndarray, sigma2: float) -> float:
    """Radar mutual information from raw arrays: b (Q, N_t) stacks the
    gain-weighted target steering rows alpha_q a(theta_q)^T, t_eff is
    (K, N_t, N_s)."""
    tk = b @ t_eff                                             # (K, Q, N_s)
    m = np.eye(t_eff.shape[2]) + (_herm(tk) @ tk) / sigma2
    _, logdet = np.linalg.slogdet(m)
    return _sum_in_order(logdet / np.log(2.0))


# -- virtual array data model (shared with the DOA study) ---------------------

def virtual_mean_vector(transmit_factor: np.ndarray, n_radar_rx: int,
                        angle: float, derivative: bool = False) -> np.ndarray:
    """Virtual model vector v(u) = (D^T a_t(u)) kron a_r(u), length K*M_r.

    With derivative=True returns d v/d u instead.
    """
    d = np.asarray(transmit_factor)
    nt = d.shape[0]
    at = steering_vector(angle, nt)
    ar = steering_vector(angle, n_radar_rx)
    tx = d.T @ at
    if not derivative:
        return np.kron(tx, ar)
    m_t = 1j * np.pi * np.arange(nt)
    m_r = 1j * np.pi * np.arange(n_radar_rx)
    tx_d = d.T @ (m_t * at)
    return np.kron(tx_d, ar) + np.kron(tx, m_r * ar)


def default_transmit_factor(p: HybridPrecoder) -> np.ndarray:
    """Deterministic probing factor D: column k is F_rf F_d[k] @ 1 / sqrt(N_s)."""
    t_eff = p.effective()
    s = np.ones(t_eff.shape[2]) / np.sqrt(t_eff.shape[2])
    return np.einsum("kts,s->tk", t_eff, s)


def fisher_information(transmit_factor: np.ndarray, n_radar_rx: int,
                       angles, gains, noise_variance: float,
                       n_snapshots: int = 1) -> np.ndarray:
    """Fisher information for (angles, Re gains, Im gains) of the virtual model.

    Deterministic-mean complex Gaussian model: FIM = (2 n / sigma^2) Re(J^H J).
    """
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    gains = np.atleast_1d(np.asarray(gains, dtype=complex))
    q = angles.size
    cols = []
    for i in range(q):
        cols.append(gains[i] * virtual_mean_vector(
            transmit_factor, n_radar_rx, angles[i], derivative=True))
    vs = [virtual_mean_vector(transmit_factor, n_radar_rx, a) for a in angles]
    cols.extend(vs)
    cols.extend([1j * v for v in vs])
    j = np.stack(cols, axis=1)
    return (2.0 * n_snapshots / noise_variance) * np.real(j.conj().T @ j)


def crlb_doa(p: HybridPrecoder, scene: RadarScene, noise_variance: float,
             virtual=None, n_radar_rx: int | None = None,
             n_snapshots: int = 1) -> np.ndarray:
    """CRLB on each target's sin-space angle from the virtual data model.

    virtual, when given, supplies the transmit factor and radar channel count
    (any object with transmit_factor and n_radar_rx attributes); otherwise a
    deterministic probing factor is derived from the precoder and n_radar_rx
    must be passed. A singular Fisher matrix reports infinite CRLB.
    """
    if virtual is not None:
        d = np.asarray(virtual.transmit_factor)
        m_r = int(virtual.n_radar_rx)
    else:
        if n_radar_rx is None:
            raise ValueError("n_radar_rx required when no virtual model is given")
        d = default_transmit_factor(p)
        m_r = int(n_radar_rx)
    q = scene.n_targets
    if q >= d.shape[1] * m_r:
        raise ValueError("targets not identifiable: need Q < K * M_r")
    fim = fisher_information(d, m_r, scene.target_angles, scene.target_gains,
                             noise_variance, n_snapshots)
    try:
        inv = np.linalg.inv(fim)
    except np.linalg.LinAlgError:
        return np.full(q, np.inf)
    var = np.diag(inv)[:q].copy()
    if np.any(var <= 0) or not np.all(np.isfinite(var)):
        return np.full(q, np.inf)
    return var


# -- communication metrics ----------------------------------------------------

def _streams_per_user(n_streams: int, n_users: int) -> int:
    if n_streams % n_users != 0:
        raise ValueError("n_streams must be divisible by n_users")
    return n_streams // n_users


def se_of_arrays(h: np.ndarray, t_eff: np.ndarray, w_eff: np.ndarray,
                 sigma2: float, return_regularized: bool = False):
    """Spectral efficiency from raw arrays h (K,U,N_r,N_t), t_eff (K,N_t,N_s),
    w_eff (K,U,N_r,N_s); averaged over carriers."""
    K, U = h.shape[0], h.shape[1]
    ns = t_eff.shape[2]
    s_pu = _streams_per_user(ns, U)
    own, others = _user_columns(ns, U)
    wh = _herm(w_eff)                                     # (K, U, N_s, N_r)
    cf = wh @ h @ t_eff[:, None]                          # (K, U, N_s, N_s)
    g = _take_columns(cf, own)
    other = _take_columns(cf, others)
    r = other @ _herm(other) + sigma2 * (wh @ w_eff)
    regularized = False
    try:
        rinv_g = np.linalg.solve(r, g)
    except np.linalg.LinAlgError:
        rinv_g = np.empty_like(g)
        for k, u in np.ndindex(K, U):
            try:
                rinv_g[k, u] = np.linalg.solve(r[k, u], g[k, u])
            except np.linalg.LinAlgError:
                regularized = True
                rinv_g[k, u] = np.linalg.solve(r[k, u] + 1e-12 * np.eye(ns),
                                               g[k, u])
    m = np.eye(s_pu) + _herm(g) @ rinv_g
    _, logdet = np.linalg.slogdet(m)
    se = _sum_in_order(logdet / np.log(2.0)) / K
    if return_regularized:
        return se, regularized
    return se


def mmse_of_arrays(h: np.ndarray, t_eff: np.ndarray, w_eff: np.ndarray,
                   sigma2: float) -> float:
    """Total symbol estimation error from raw arrays (see multiuser_mmse)."""
    K, U = h.shape[0], h.shape[1]
    eye = np.eye(t_eff.shape[2])
    total = 0.0
    for k in range(K):
        for u in range(U):
            w = w_eff[k, u]
            g = w.conj().T @ h[k, u] @ t_eff[k]
            total += np.linalg.norm(eye - g) ** 2 + sigma2 * np.linalg.norm(w) ** 2
    return float(total)


def spectral_efficiency(ch: ChannelSet, p: HybridPrecoder, c: HybridCombiner,
                        return_regularized: bool = False):
    """Sum spectral efficiency averaged over carriers (bits/s/Hz).

    User u's rate counts its own stream block against the covariance of the
    other users' streams plus combined noise. A singular interference-plus-
    noise covariance is ridge-regularized at 1e-12 and flagged.
    """
    return se_of_arrays(ch.h, p.effective(), c.effective(), ch.noise_variance,
                        return_regularized=return_regularized)


def multiuser_mmse(ch: ChannelSet, p: HybridPrecoder, c: HybridCombiner) -> float:
    """Total symbol estimation error sum_{k,u} E||s_k - s_hat_{k,u}||^2.

    Each user forms an N_s-wide estimate of the carrier's symbol vector, so
    zero precoder and combiner give N_s * U * K (all symbol energy lost).
    Closed form under unit-variance independent symbols:
    ||I - W^H H F||_F^2 + sigma^2 ||W||_F^2 summed over (k, u).
    """
    return mmse_of_arrays(ch.h, p.effective(), c.effective(), ch.noise_variance)


# -- report -------------------------------------------------------------------

REPORT_FIELDS = ("se_bits", "mmse", "mi_comm", "mi_radar", "ssme",
                 "psl_db", "isl_db", "sinr_db", "pd", "crlb")

REPORT_UNITS = {
    "se_bits": "bits/s/Hz", "mmse": "symbol^2", "mi_comm": "bits",
    "mi_radar": "bits", "ssme": "power^2", "psl_db": "dB", "isl_db": "dB",
    "sinr_db": "dB", "pd": "probability", "crlb": "sin^2",
}


@dataclass
class MetricReport:
    """Named scalar metrics with fixed CSV column order."""

    values: dict
    regularized: bool = False

    def __post_init__(self):
        missing = [f for f in REPORT_FIELDS if f not in self.values]
        if missing:
            raise ValueError(f"missing metric fields: {missing}")

    @staticmethod
    def csv_header():
        return list(REPORT_FIELDS) + ["se_regularized"]

    def csv_row(self):
        return [self.values[f] for f in REPORT_FIELDS] + [int(self.regularized)]

    def __getitem__(self, key):
        return self.values[key]


def evaluate_metrics(ch: ChannelSet, p: HybridPrecoder, c: HybridCombiner,
                     scene: RadarScene, pfa: float = 1e-4,
                     n_radar_rx: int = 8) -> MetricReport:
    """Evaluate the full metric suite on a designed (precoder, combiner) pair."""
    sigma2 = ch.noise_variance
    se, reg = spectral_efficiency(ch, p, c, return_regularized=True)
    mm = multiuser_mmse(ch, p, c)
    mi_r = radar_mi(p, scene, sigma2)
    pat = beampattern(p, scene.grid)
    ss, _ = ssme_of_pattern(pat, scene.desired)
    psl, isl = psl_isl(pat, scene)
    sinr = radar_sinr(p, scene, sigma2)
    pd = detection_probability(sinr, pfa)
    crlb = crlb_doa(p, scene, sigma2, n_radar_rx=n_radar_rx)
    values = {
        "se_bits": se,
        "mmse": mm,
        "mi_comm": se * ch.n_subcarriers,
        "mi_radar": mi_r,
        "ssme": ss,
        "psl_db": psl,
        "isl_db": isl,
        "sinr_db": 10.0 * np.log10(sinr) if sinr > 0 else -np.inf,
        "pd": pd,
        "crlb": float(np.mean(crlb)),
    }
    return MetricReport(values=values, regularized=reg)
