"""Steering vectors, sin-space grids and clustered mmWave channel generation.

All angles are expressed in sin-space u = sin(theta), u in [-1, 1], for a
half-wavelength uniform linear array: element m sees the spatial phase
pi * m * u. Channel realizations are pure functions of (dims, model, seed);
every user draws from an independent RNG substream so that results for user
u depend only on (seed, u).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SystemDims:
    """Antenna / RF-chain / stream counts of the transceiver chain.

    Attributes
    ----------
    n_tx_antennas : transmit array size N_t
    n_rx_antennas : per-user receive array size N_r
    n_tx_rf : transmit RF chains (digital beamforming dimension)
    n_rx_rf : per-user receive RF chains
    n_streams : total data streams N_s, split evenly among users
    n_users : number of downlink users U
    n_subcarriers : number of carriers K
    n_radar_rx_rf : radar receive channels M_r (virtual-array model)
    """

    n_tx_antennas: int
    n_rx_antennas: int
    n_tx_rf: int
    n_rx_rf: int
    n_streams: int
    n_users: int
    n_subcarriers: int
    n_radar_rx_rf: int

    def __post_init__(self):
        counts = (self.n_tx_antennas, self.n_rx_antennas, self.n_tx_rf,
                  self.n_rx_rf, self.n_streams, self.n_users,
                  self.n_subcarriers, self.n_radar_rx_rf)
        if any(int(c) < 1 for c in counts):
            raise ValueError("all dimension counts must be >= 1")
        if not (self.n_streams <= self.n_tx_rf <= self.n_tx_antennas):
            raise ValueError(
                f"need n_streams <= n_tx_rf <= n_tx_antennas, got "
                f"{self.n_streams} <= {self.n_tx_rf} <= {self.n_tx_antennas}")
        if self.n_rx_rf > self.n_rx_antennas:
            raise ValueError("n_rx_rf must not exceed n_rx_antennas")


@dataclass(frozen=True)
class SinGrid:
    """Uniform grid of sin-space angles on [-1, 1]."""

    points: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.points, dtype=float)
        if p.ndim != 1 or p.size < 2:
            raise ValueError("grid needs at least 2 points")
        if np.any(np.diff(p) <= 0):
            raise ValueError("grid points must be strictly increasing")
        if np.any(np.abs(p) > 1 + 1e-12):
            raise ValueError("grid points must lie in [-1, 1]")
        object.__setattr__(self, "points", p)

    def __len__(self):
        return self.points.size

    @property
    def spacing(self) -> float:
        return float(self.points[1] - self.points[0])


def make_grid(n_points: int) -> SinGrid:
    """Uniform inclusive grid over [-1, 1] with n_points >= 2 samples."""
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    return SinGrid(np.linspace(-1.0, 1.0, int(n_points)))


def steering_vector(u: float, n: int) -> np.ndarray:
    """ULA steering vector: element m equals exp(j*pi*m*u), m = 0..n-1.

    Raises ValueError for |u| > 1 or n < 1. Entries are exactly unit modulus.
    """
    if n < 1:
        raise ValueError("element count must be >= 1")
    u = float(u)
    if abs(u) > 1.0:
        raise ValueError(f"sin-space angle out of range: {u}")
    return np.exp(1j * np.pi * np.arange(n) * u)


def steering_matrix(us, n: int) -> np.ndarray:
    """Rows a(u)^T for each u; shape (len(us), n). Accepts any u in [-1, 1]."""
    us = np.atleast_1d(np.asarray(us, dtype=float))
    if np.any(np.abs(us) > 1.0 + 1e-12):
        raise ValueError("sin-space angles out of range")
    return np.exp(1j * np.pi * np.outer(us, np.arange(n)))


@dataclass(frozen=True)
class ClusterModel:
    """Clustered channel parameters: n_clusters x n_rays Laplacian-spread rays.

    angle_spread is the Laplacian scale of per-ray offsets in sin-space.
    Per-subcarrier variation comes from a random per-ray phase ramp across k.
    """

    n_clusters: int = 5
    n_rays: int = 10
    angle_spread: float = 0.05

    def __post_init__(self):
        if self.n_clusters < 1 or self.n_rays < 1:
            raise ValueError("cluster and ray counts must be >= 1")
        if self.angle_spread < 0:
            raise ValueError("angle_spread must be nonnegative")


@dataclass
class ChannelSet:
    """Per-subcarrier, per-user channel matrices.

    h has shape (K, U, N_r, N_t); h[k, u] is the channel of user u at
    carrier k. noise_variance is the receiver noise power sigma^2.
    """

    h: np.ndarray
    noise_variance: float
    seed: int

    def __post_init__(self):
        self.h = np.asarray(self.h, dtype=complex)
        if self.h.ndim != 4:
            raise ValueError("channel array must have shape (K, U, N_r, N_t)")
        if not np.all(np.isfinite(self.h)):
            raise ValueError("channel entries must be finite")
        if self.noise_variance <= 0:
            raise ValueError("noise variance must be positive")

    @property
    def n_subcarriers(self) -> int:
        return self.h.shape[0]

    @property
    def n_users(self) -> int:
        return self.h.shape[1]


def _user_rng(seed: int, user: int) -> np.random.Generator:
    # Independent substream per user: stream depends only on (seed, user).
    root = np.random.SeedSequence(int(seed))
    return np.random.default_rng(root.spawn(user + 1)[user])


def gen_channel(dims: SystemDims, model: ClusterModel, seed: int,
                noise_variance: float = 1.0) -> ChannelSet:
    """Generate a clustered multi-user multi-carrier channel set.

    Each H[k, u] is a 1/sqrt(L) normalized sum of L = n_clusters * n_rays
    rank-one outer products a_r(v_l) a_t(w_l)^H with CN(0, 1) ray gains, so
    E||H||_F^2 = N_t * N_r. Carrier variation multiplies each ray by
    exp(-2j*pi*f_l*k) with a random per-ray normalized delay f_l.
    """
    K, U = dims.n_subcarriers, dims.n_users
    nr, nt = dims.n_rx_antennas, dims.n_tx_antennas
    L = model.n_clusters * model.n_rays
    h = np.empty((K, U, nr, nt), dtype=complex)
    ks = np.arange(K)
    for u in range(U):
        rng = _user_rng(seed, u)
        centers_tx = rng.uniform(-1.0, 1.0, size=model.n_clusters)
        centers_rx = rng.uniform(-1.0, 1.0, size=model.n_clusters)
        off_tx = rng.laplace(scale=model.angle_spread,
                             size=(model.n_clusters, model.n_rays))
        off_rx = rng.laplace(scale=model.angle_spread,
                             size=(model.n_clusters, model.n_rays))
        u_tx = np.clip(centers_tx[:, None] + off_tx, -1.0, 1.0).ravel()
        u_rx = np.clip(centers_rx[:, None] + off_rx, -1.0, 1.0).ravel()
        gains = (rng.standard_normal(L) + 1j * rng.standard_normal(L)) / np.sqrt(2.0)
        delays = rng.uniform(0.0, 1.0, size=L)
        a_t = steering_matrix(u_tx, nt)          # (L, N_t), rows a(u)^T
        a_r = steering_matrix(u_rx, nr)          # (L, N_r)
        ramps = np.exp(-2j * np.pi * np.outer(ks, delays))   # (K, L)
        weights = ramps * gains[None, :] / np.sqrt(L)        # (K, L)
        # H_k = sum_l w_kl * a_r(l) a_t(l)^H
        h[:, u] = np.einsum("kl,lr,lt->krt", weights, a_r, np.conj(a_t))
    return ChannelSet(h=h, noise_variance=float(noise_variance), seed=int(seed))
