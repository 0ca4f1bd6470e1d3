"""Beamformer design: fully digital reference, two-stage factorization and
consensus-ADMM decoupling, plus receive-combiner design.

The scalarized objective is always minimized over per-carrier effective
precoders T_k (fully digital) or over (F_rf, {F_d,k}) with per-(carrier,
user) auxiliary copies Y_{k,u} of F_rf F_d,k tied together by consensus
constraints. Every auxiliary update stays a single ridge least squares:
MMSE and spectrum matching are quadratic as stated, per-user rates enter
through their weighted-MMSE majorizer, and the radar mutual information is
linearized at the current consensus point.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .architecture import AnalogPrecoder, ArchitectureSpec, project_analog, random_feasible
from .channel import ChannelSet, SystemDims, steering_matrix
from .metrics import (HybridCombiner, HybridPrecoder, RadarScene,
                      mmse_of_arrays, pattern_of_effective, radar_mi_of_arrays,
                      scale_to_budget, se_of_arrays, ssme_of_pattern)
from .scalarize import (EpsilonConstraint, ObjectiveSpec, Normalizer,
                        ScalarizedProblem, WeightedSum, make_problem)

LN2 = np.log(2.0)

STATUS_CONVERGED = "converged"
STATUS_MAX_ITER = "max_iter"
STATUS_DIVERGED = "diverged"


class SolverError(RuntimeError):
    def __init__(self, message, iteration=None):
        super().__init__(message)
        self.iteration = iteration


class UnsupportedCombinationError(ValueError):
    pass


@dataclass(frozen=True)
class SolverConfig:
    max_iterations: int = 150
    tol_primal: float = 1e-3
    tol_dual: float = 1e-3
    rho: float = 0.5
    rho_growth: float = 1.02
    rho_cap: float = 1e3            # cap as a multiple of the initial rho
    ridge: float = 1e-12
    seed: int = 0
    fd_tol: float = 1e-7            # relative objective change stop, BCD
    fd_min_step: float = 1e-12
    penalty_mu: float = 10.0        # quadratic penalty weight (eps / min-max)
    penalty_growth: float = 1.05
    penalty_cap: float = 1e6
    factor_max_iterations: int = 60
    factor_tol: float = 1e-11
    analog_sweeps: int = 2
    refine_iterations: int = 40     # digital polish on the true objective

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.tol_primal <= 0 or self.tol_dual <= 0:
            raise ValueError("tolerances must be positive")
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if self.rho_growth < 1:
            raise ValueError("rho growth factor must be >= 1")


@dataclass
class DesignProblem:
    """Everything a design run needs: channels, scene, feasible set, objective."""

    dims: SystemDims
    channels: ChannelSet
    scene: RadarScene
    architecture: ArchitectureSpec
    objective: ObjectiveSpec
    scalarization: object
    power: float = 1.0

    def __post_init__(self):
        k, u, nr, nt = self.channels.h.shape
        d = self.dims
        if (k, u, nr, nt) != (d.n_subcarriers, d.n_users, d.n_rx_antennas,
                              d.n_tx_antennas):
            raise ValueError("channel array shape disagrees with dims")
        if (self.architecture.n_tx_antennas, self.architecture.n_tx_rf) != \
                (d.n_tx_antennas, d.n_tx_rf):
            raise ValueError("architecture dims disagree with system dims")
        if self.power <= 0:
            raise ValueError("power budget must be positive")


@dataclass
class DesignResult:
    """Converged beamformers plus per-iteration traces and provenance."""

    method: str
    status: str
    precoder: HybridPrecoder | None
    fully_digital: np.ndarray | None
    combiners: HybridCombiner
    objective_trace: np.ndarray
    primal_trace: np.ndarray
    dual_trace: np.ndarray
    residual_trace: np.ndarray | None
    seed: int
    config: SolverConfig
    scalarization: object
    objective: ObjectiveSpec
    final: dict


# -- objective engine ---------------------------------------------------------

class _Engine:
    """Precomputed quantities plus metric values and gradients on effective
    per-carrier precoders T (K, N_t, N_s)."""

    def __init__(self, problem: DesignProblem):
        self.problem = problem
        ch = problem.channels
        self.h = ch.h
        self.sigma2 = ch.noise_variance
        self.K, self.U, self.nr, self.nt = ch.h.shape
        self.ns = problem.dims.n_streams
        self.s_pu = self.ns // self.U
        if self.s_pu * self.U != self.ns:
            raise ValueError("n_streams must be divisible by n_users")
        self.nrf_r = problem.dims.n_rx_rf
        self.power = problem.power
        scene = problem.scene
        self.grid_u = scene.grid.points
        self.n_g = self.grid_u.size
        self.a_grid = steering_matrix(self.grid_u, self.nt)       # (G, N_t)
        self.aha = (self.a_grid.conj().T @ self.a_grid) / self.n_g
        self.desired = scene.desired
        a_tgt = steering_matrix(scene.target_angles, self.nt)
        self.b_tgt = scene.target_gains[:, None] * a_tgt          # (Q, N_t)
        self.bhb = self.b_tgt.conj().T @ self.b_tgt
        self.objective = problem.objective

    # ---- initialization

    def matched_init(self) -> np.ndarray:
        """Per-carrier matched precoder: each user's block holds the leading
        right singular vectors of its channel; normalized to P/K."""
        t = np.zeros((self.K, self.nt, self.ns), dtype=complex)
        for k in range(self.K):
            for u in range(self.U):
                _, _, vh = np.linalg.svd(self.h[k, u], full_matrices=False)
                block = slice(u * self.s_pu, (u + 1) * self.s_pu)
                t[k][:, block] = vh[:self.s_pu].conj().T
        return scale_to_budget(t, self.power)

    # ---- combiners

    def wiener_unconstrained(self, t: np.ndarray) -> np.ndarray:
        """Unconstrained per-(k,u) MMSE combiners, shape (K, U, N_r, N_s)."""
        w = np.empty((self.K, self.U, self.nr, self.ns), dtype=complex)
        eye = np.eye(self.nr)
        for k in range(self.K):
            for u in range(self.U):
                ht = self.h[k, u] @ t[k]
                cov = ht @ ht.conj().T + self.sigma2 * eye
                w[k, u] = np.linalg.solve(cov, ht)
        return w

    def hybrid_combiners(self, t: np.ndarray) -> HybridCombiner:
        return _hybrid_combiners(self.h, t, self.sigma2, self.nrf_r, 1e-12)

    # ---- metric values

    def comm_value(self, t: np.ndarray, w_eff: np.ndarray) -> float:
        if self.objective.comm_metric == "mmse":
            return mmse_of_arrays(self.h, t, w_eff, self.sigma2)
        return -se_of_arrays(self.h, t, w_eff, self.sigma2)

    def radar_value(self, t: np.ndarray) -> float:
        if self.objective.radar_metric == "ssme":
            pattern = pattern_of_effective(t, self.grid_u)
            val, _ = ssme_of_pattern(pattern, self.desired)
            return val
        return -self._radar_mi(t)

    def _radar_mi(self, t: np.ndarray) -> float:
        return radar_mi_of_arrays(self.b_tgt, t, self.sigma2)

    def normalized(self, t: np.ndarray, w_eff: np.ndarray):
        nr = self.objective.radar_norm(self.radar_value(t))
        nc = self.objective.comm_norm(self.comm_value(t, w_eff))
        return nr, nc

    # ---- gradients with respect to conj(T_k), raw (unnormalized) metrics

    def comm_grad(self, t: np.ndarray, w_eff: np.ndarray) -> np.ndarray:
        g = np.zeros_like(t)
        if self.objective.comm_metric == "mmse":
            eye = np.eye(self.ns)
            for k in range(self.K):
                for u in range(self.U):
                    b = w_eff[k, u].conj().T @ self.h[k, u]   # (N_s, N_t)
                    g[k] += b.conj().T @ (b @ t[k] - eye)
            return g
        for k in range(self.K):
            for u in range(self.U):
                g[k] += self._neg_se_grad_ku(t[k], w_eff[k, u], k, u)
        return g

    def _neg_se_grad_ku(self, tk, w, k, u):
        b = w.conj().T @ self.h[k, u]                 # (N_s, N_t)
        c_full = b @ tk                               # (N_s, N_s)
        noise = self.sigma2 * (w.conj().T @ w)
        own = slice(u * self.s_pu, (u + 1) * self.s_pu)
        sel = np.ones(self.ns)
        sel[own] = 0.0
        c_int = c_full * sel[None, :]
        s_tot = c_full @ c_full.conj().T + noise
        s_int = c_int @ c_int.conj().T + noise
        eye = 1e-12 * np.eye(self.ns)
        g_tot = b.conj().T @ np.linalg.solve(s_tot + eye, c_full)
        g_int = b.conj().T @ np.linalg.solve(s_int + eye, c_int)
        return -(g_tot - g_int) / (self.K * LN2)

    def radar_grad(self, t: np.ndarray) -> np.ndarray:
        g = np.zeros_like(t)
        if self.objective.radar_metric == "ssme":
            pattern = pattern_of_effective(t, self.grid_u)
            _, beta = ssme_of_pattern(pattern, self.desired)
            weight = (pattern - beta * self.desired)   # (G,)
            for k in range(self.K):
                resp = self.a_grid @ t[k]
                g[k] = (2.0 / self.n_g) * (self.a_grid.conj().T
                                           @ (weight[:, None] * resp))
            return g
        for k in range(self.K):
            m = np.eye(self.ns) + (t[k].conj().T @ self.bhb @ t[k]) / self.sigma2
            g[k] = -(self.bhb @ t[k] @ np.linalg.inv(m)) / (self.sigma2 * LN2)
        return g

    def rate_quadratic_ku(self, z: np.ndarray, w_eff: np.ndarray, k: int,
                          u: int, ridge: float):
        """Weighted-MMSE majorizer of user u's negative rate at carrier k.

        With the receiver fixed and weight U = E(Z)^-1, the rate satisfies
        -rate(Y) <= [tr(U E(Y)) - log det U - s_pu] / ln 2 with equality at
        Y = Z, and tr(U E(Y)) is quadratic in Y. Returns (Q, rhs) of the
        per-copy quadratic (1/ln2) tr(U E(Y)).
        """
        own = slice(u * self.s_pu, (u + 1) * self.s_pu)
        w_own = w_eff[k, u][:, own]                        # (N_r, s_pu)
        b = w_own.conj().T @ self.h[k, u]                  # (s_pu, N_t)
        bz = b @ z[k]                                      # (s_pu, N_s)
        e = np.eye(self.s_pu, dtype=complex) - bz[:, own]
        other = np.delete(bz, np.s_[own], axis=1)
        err = (e @ e.conj().T + other @ other.conj().T
               + self.sigma2 * (w_own.conj().T @ w_own))
        weight = np.linalg.inv(err + ridge * np.eye(self.s_pu))
        scale = 1.0 / (self.K * LN2)
        q = scale * (b.conj().T @ weight @ b)
        rhs = np.zeros((self.nt, self.ns), dtype=complex)
        rhs[:, own] = scale * (b.conj().T @ weight)
        return q, rhs

    def raw_weights(self, w_radar: float, w_comm: float):
        """Fold the metric normalizer scales into the solver weights."""
        return (w_radar / self.objective.radar_norm.scale,
                w_comm / self.objective.comm_norm.scale)


# -- fully digital block-coordinate descent -----------------------------------

def design_fully_digital(problem: DesignProblem, cfg: SolverConfig) -> DesignResult:
    """Unconstrained per-carrier precoders via alternating MMSE combiners and
    projected-gradient steps with per-carrier power renormalization.

    With a weighted-sum scalarization the recorded objective trace is
    nonincreasing up to 1e-9 per accepted step; constrained scalarizations
    are handled by a growing quadratic penalty (monotone at fixed penalty).
    """
    eng = _Engine(problem)
    prob = make_problem(problem.objective, problem.scalarization)
    t = eng.matched_init()
    mu = cfg.penalty_mu
    trace = []
    step = None
    status = STATUS_MAX_ITER
    for it in range(cfg.max_iterations):
        w_eff = eng.wiener_unconstrained(t)
        nr_, nc_ = eng.normalized(t, w_eff)
        obj = prob.penalty_value(nr_, nc_, mu)
        if not np.isfinite(obj):
            raise SolverError(f"non-finite objective at iteration {it}", it)
        wr, wc = prob.solver_weights(nr_, nc_, mu)
        wr_raw, wc_raw = eng.raw_weights(wr, wc)
        grad = np.zeros_like(t)
        if wr_raw != 0.0:
            grad += wr_raw * eng.radar_grad(t)
        if wc_raw != 0.0:
            grad += wc_raw * eng.comm_grad(t, w_eff)
        gnorm = np.linalg.norm(grad)
        if gnorm < 1e-14:
            status = STATUS_CONVERGED
            trace.append(obj)
            break
        if step is None:
            step = 0.1 * np.linalg.norm(t) / gnorm
        accepted = False
        while step >= cfg.fd_min_step:
            cand = t - step * grad
            if min(np.linalg.norm(cand[k]) for k in range(eng.K)) < 1e-300:
                step *= 0.5
                continue
            cand = scale_to_budget(cand, eng.power)
            nr2, nc2 = eng.normalized(cand, w_eff)
            obj2 = prob.penalty_value(nr2, nc2, mu)
            if obj2 <= obj + 1e-9 * max(1.0, abs(obj)):
                accepted = True
                break
            step *= 0.5
        if not accepted:
            status = STATUS_CONVERGED
            trace.append(obj)
            break
        rel = (obj - obj2) / max(1e-15, abs(obj))
        t = cand
        trace.append(obj2)
        step *= 1.5
        if not isinstance(prob.scalarization, WeightedSum):
            mu = min(mu * cfg.penalty_growth, cfg.penalty_cap)
        if it > 3 and 0 <= rel < cfg.fd_tol:
            status = STATUS_CONVERGED
            break
    w_eff = eng.wiener_unconstrained(t)
    combiners = _pack_unconstrained(w_eff)
    nr_, nc_ = eng.normalized(t, w_eff)
    final = _final_report(prob, nr_, nc_, eng, t, w_eff)
    return DesignResult(
        method="fully_digital", status=status, precoder=None, fully_digital=t,
        combiners=combiners, objective_trace=np.asarray(trace),
        primal_trace=np.asarray([]), dual_trace=np.asarray([]),
        residual_trace=None, seed=cfg.seed, config=cfg,
        scalarization=problem.scalarization, objective=problem.objective,
        final=final)


def _pack_unconstrained(w_eff: np.ndarray) -> HybridCombiner:
    """Represent unconstrained combiners exactly in hybrid form via a DFT
    analog stage (unit modulus, invertible) with N_rf_r = N_r."""
    K, U, nr, ns = w_eff.shape
    n = np.arange(nr)
    dft = np.exp(-2j * np.pi * np.outer(n, n) / nr)
    inv = dft.conj().T / nr
    analog = np.broadcast_to(dft, (U, nr, nr)).copy()
    digital = np.einsum("rm,kums->kurs", inv, w_eff)
    return HybridCombiner(analog=analog, digital=digital)


def _final_report(prob: ScalarizedProblem, nr_: float, nc_: float,
                  eng: _Engine, t: np.ndarray, w_eff: np.ndarray) -> dict:
    post = prob.post_check(nr_, nc_)
    return {
        "radar_norm": nr_, "comm_norm": nc_,
        "radar_raw": eng.radar_value(t), "comm_raw": eng.comm_value(t, w_eff),
        "objective": prob.value(nr_, nc_), "eta": post["eta"],
        "feasible": post["feasible"], "violation": post["violation"],
    }


# -- two-stage factorization --------------------------------------------------

def constructive_split(f_star: np.ndarray, n_rf: int):
    """Exact hybrid factorization of one fully digital matrix when
    n_rf >= 2 n_s: each entry z becomes gamma*(e^{j(a+d)} + e^{j(a-d)}) with
    a = arg z and d = arccos(|z| / (2 gamma))."""
    nt, ns = f_star.shape
    if n_rf < 2 * ns:
        raise ValueError("constructive split needs n_rf >= 2 * n_s")
    gamma = np.max(np.abs(f_star)) / 2.0
    if gamma == 0:
        gamma = 1.0
    base = np.angle(f_star)
    delta = np.arccos(np.clip(np.abs(f_star) / (2.0 * gamma), 0.0, 1.0))
    f_rf = np.ones((nt, n_rf), dtype=complex)
    f_rf[:, :ns] = np.exp(1j * (base + delta))
    f_rf[:, ns:2 * ns] = np.exp(1j * (base - delta))
    f_d = np.zeros((n_rf, ns), dtype=complex)
    f_d[:ns] = gamma * np.eye(ns)
    f_d[ns:2 * ns] = gamma * np.eye(ns)
    return f_rf, f_d


def _factor_residual(f_star, f_rf, f_d) -> float:
    return float(sum(np.linalg.norm(f_star[k] - f_rf @ f_d[k]) ** 2
                     for k in range(f_star.shape[0])))


def _analog_coordinate_descent(f_rf, f_d, f_star, spec, sweeps=2):
    """Exact per-entry descent of sum_k ||F*_k - F_rf F_d,k||^2 over the
    unit-modulus entries on the current support; rows decouple."""
    x = f_rf.copy()
    support = np.abs(x) > 0
    gram = sum(fd @ fd.conj().T for fd in f_d)                # (nrf, nrf)
    cross = sum(f_d[k] @ f_star[k].conj().T for k in range(f_star.shape[0]))
    for _ in range(sweeps):
        for i in range(x.shape[1]):
            rows = support[:, i]
            if not rows.any():
                continue
            c = (np.conj(x) @ gram[i]) - gram[i, i] * np.conj(x[:, i]) - cross[i]
            mag = np.abs(c)
            upd = rows & (mag > 1e-15)
            x[upd, i] = -np.conj(c[upd]) / mag[upd]
    return x


def factorize_two_stage(f_star: np.ndarray, spec: ArchitectureSpec,
                        cfg: SolverConfig, power: float, analog_init=None):
    """Alternating minimization of the distance to a fully digital design.

    Digital step: ridge least squares per carrier. Analog step: phase
    projection of the accumulated cross-term, accepted only when it does not
    increase the residual, then polished by exact coordinate descent. The
    residual trace is nonincreasing; the returned precoder is renormalized
    to the power budget.

    Initialization: the exact constructive split when it applies (full
    connection, n_rf >= 2 n_s, single carrier), otherwise the phase
    projection of the dominant left subspace; analog_init overrides both.

    Returns (HybridPrecoder, residual_trace).
    """
    f_star = np.asarray(f_star, dtype=complex)
    K, nt, ns = f_star.shape
    nrf = spec.n_tx_rf
    if analog_init is not None:
        f_rf = np.array(analog_init, dtype=complex)
        f_d = np.zeros((K, nrf, ns), dtype=complex)
    elif spec.kind == "full" and nrf >= 2 * ns and K == 1:
        f_rf, fd0 = constructive_split(f_star[0], nrf)
        f_d = fd0[None, :, :].copy()
    else:
        stack = np.concatenate(list(f_star), axis=1)
        uleft, _, _ = np.linalg.svd(stack, full_matrices=True)
        f_rf = project_analog(uleft[:, :nrf], spec).matrix
        f_d = np.zeros((K, nrf, ns), dtype=complex)
    residuals = [_factor_residual(f_star, f_rf, f_d)]
    for _ in range(cfg.factor_max_iterations):
        # digital: ridge least squares, kept only if it improves
        f_d_new = _digital_least_squares(f_rf, f_star, cfg.ridge)
        if _factor_residual(f_star, f_rf, f_d_new) <= residuals[-1]:
            f_d = f_d_new
        # analog: spec'd cross-term projection (safeguarded), then descent
        cross = sum(f_star[k] @ f_d[k].conj().T for k in range(K))
        cand = project_analog(cross, spec).matrix
        if _factor_residual(f_star, cand, f_d) <= _factor_residual(f_star, f_rf, f_d):
            f_rf = cand
        f_rf = _analog_coordinate_descent(f_rf, f_d, f_star, spec,
                                          sweeps=cfg.analog_sweeps)
        res = _factor_residual(f_star, f_rf, f_d)
        improved = residuals[-1] - res
        residuals.append(min(res, residuals[-1]))
        if improved < cfg.factor_tol * max(1.0, residuals[0]):
            break
    analog = AnalogPrecoder(matrix=f_rf, spec=spec)
    precoder = HybridPrecoder.from_parts(analog, f_d, power, normalize=True)
    return precoder, np.asarray(residuals)


# -- consensus ADMM ------------------------------------------------------------

def _radar_reference(eng: _Engine, z: np.ndarray):
    """Per-carrier desired complex responses R_k with row norms matched to
    sqrt(beta_k * d); phases follow the current response."""
    refs = np.empty((eng.K, eng.n_g, eng.ns), dtype=complex)
    d = eng.desired
    dd = float(d @ d)
    for k in range(eng.K):
        resp = eng.a_grid @ z[k]                       # (G, N_s)
        pk = np.sum(np.abs(resp) ** 2, axis=1)
        beta = float(d @ pk) / dd if dd > 0 else 1.0
        beta = max(beta, 0.0)
        target = np.sqrt(beta * d)
        norms = np.sqrt(pk)
        safe = norms > 1e-12
        scale = np.where(safe, target / np.where(safe, norms, 1.0), 0.0)
        ref = resp * scale[:, None]
        # zero response rows inside the main lobe still need a target
        dead = (~safe) & (target > 0)
        if dead.any():
            ref[dead] = (target[dead, None] / np.sqrt(eng.ns))
        refs[k] = ref
    return refs


def design_consensus_admm(problem: DesignProblem, cfg: SolverConfig,
                          init=None) -> DesignResult:
    """Direct hybrid design with auxiliary copies Y_{k,u} of F_rf F_d,k.

    Iterates Y (ridge least squares) -> F_rf (phase projection of the
    dual-adjusted average cross-term) -> F_d (least squares plus power
    renormalization) -> scaled dual updates, with a mildly growing penalty.
    Convergence is declared on primal/dual residuals, not on the objective.
    The status reads "converged" when both residuals fall below their
    tolerances, "diverged" when the divergence guard stops the loop (primal
    residual above 10x its value 50 iterations earlier) and "max_iter" when
    the iteration budget runs out. Either way the returned design is the
    better of the final and the best iterate, digitally refined.

    init, when given, is an (analog matrix, digital stack) warm start
    (e.g. the previous point of a weight sweep); the default initialization
    is a random feasible analog stage plus a ridge fit to the per-user
    matched precoder.
    """
    eng = _Engine(problem)
    prob = make_problem(problem.objective, problem.scalarization)
    arch = problem.architecture
    K, U, nt, ns = eng.K, eng.U, eng.nt, eng.ns

    if init is not None:
        f_rf = np.array(init[0], dtype=complex)
        f_d = np.array(init[1], dtype=complex)
    else:
        f_rf = random_feasible(arch, cfg.seed).matrix
        f_d = _digital_least_squares(f_rf, eng.matched_init(), cfg.ridge)
    f_d = scale_to_budget(f_d, eng.power, f_rf)
    z = np.einsum("tr,krs->kts", f_rf, f_d)
    y = np.repeat(z[:, None], U, axis=1)              # (K, U, N_t, N_s)
    duals = np.zeros_like(y)

    rho = cfg.rho
    rho_max = cfg.rho * cfg.rho_cap
    mu = cfg.penalty_mu
    quad_radar = eng.objective.radar_metric == "ssme"
    quad_comm = eng.objective.comm_metric == "mmse"
    eye_t = np.eye(nt)

    obj_trace, primal_trace, dual_trace = [], [], []
    status = STATUS_MAX_ITER
    best_score, best_state = np.inf, (f_rf.copy(), f_d.copy())
    for it in range(cfg.max_iterations):
        combiners = eng.hybrid_combiners(z)
        w_eff = combiners.effective()
        nr_, nc_ = eng.normalized(z, w_eff)
        obj = prob.value(nr_, nc_)
        if not np.isfinite(obj):
            raise SolverError(f"non-finite objective at iteration {it}", it)
        obj_trace.append(obj)
        # nonconvex consensus has no objective monotonicity; remember the
        # best feasible iterate (strong fixed penalty keeps constrained
        # scalarizations honest about violations)
        score = prob.penalty_value(nr_, nc_, cfg.penalty_cap)
        if score < best_score:
            best_score, best_state = score, (f_rf.copy(), f_d.copy())
        wr, wc = prob.solver_weights(nr_, nc_, mu)
        wr_raw, wc_raw = eng.raw_weights(wr, wc)

        if quad_radar and wr_raw != 0.0:
            refs = _radar_reference(eng, z)
        lin_radar = None if quad_radar else eng.radar_grad(z)

        # Y update: quadratic metric terms exact (MMSE directly, rates via
        # their weighted-MMSE majorizer), radar MI linearized at z
        lhs = np.empty((K, U, nt, nt), dtype=complex)
        rhs = np.empty((K, U, nt, ns), dtype=complex)
        base = (rho / 2.0 + cfg.ridge) * eye_t
        for k in range(K):
            for u in range(U):
                m = base.copy()
                r = (rho / 2.0) * (z[k] - duals[k, u])
                if wc_raw != 0.0:
                    if quad_comm:
                        b = w_eff[k, u].conj().T @ eng.h[k, u]
                        m = m + wc_raw * (b.conj().T @ b)
                        r = r + wc_raw * b.conj().T
                    else:
                        q_c, rhs_c = eng.rate_quadratic_ku(z, w_eff, k, u,
                                                           cfg.ridge)
                        m = m + wc_raw * q_c
                        r = r + wc_raw * rhs_c
                if wr_raw != 0.0:
                    if quad_radar:
                        share = wr_raw / (U * eng.n_g)
                        m = m + share * eng.n_g * eng.aha
                        r = r + share * (eng.a_grid.conj().T @ refs[k])
                    else:
                        r = r - (wr_raw / U) * lin_radar[k]
                lhs[k, u] = m
                rhs[k, u] = r
        y = np.linalg.solve(lhs.reshape(K * U, nt, nt),
                            rhs.reshape(K * U, nt, ns)).reshape(K, U, nt, ns)

        # F_rf: phase projection of the dual-adjusted average cross-term,
        # then exact per-entry descent of the consensus block objective
        yd = y + duals
        mean_yd = yd.mean(axis=1)
        cross = np.einsum("kuts,krs->tr", yd, np.conj(f_d)) / (K * U)
        cand = project_analog(cross, arch).matrix
        if (_factor_residual(mean_yd, cand, f_d)
                <= _factor_residual(mean_yd, f_rf, f_d)):
            f_rf = cand
        f_rf = _analog_coordinate_descent(f_rf, f_d, mean_yd, arch, sweeps=1)

        # F_d: least squares to the averaged copies, then power renorm
        f_d = scale_to_budget(_digital_least_squares(f_rf, mean_yd, cfg.ridge),
                              eng.power, f_rf)
        z_old = z
        z = np.einsum("tr,krs->kts", f_rf, f_d)

        duals = duals + (y - z[:, None])
        primal = float(np.max(np.linalg.norm(y - z[:, None], axis=(2, 3))))
        dual = float(rho * np.max(np.linalg.norm(z - z_old, axis=(1, 2))))
        primal_trace.append(primal)
        dual_trace.append(dual)

        if primal < cfg.tol_primal and dual < cfg.tol_dual:
            status = STATUS_CONVERGED
            break
        if it >= 50 and primal > 10.0 * primal_trace[it - 50]:
            status = STATUS_DIVERGED
            break
        new_rho = min(rho * cfg.rho_growth, rho_max)
        if new_rho != rho:
            duals *= rho / new_rho
            rho = new_rho
        if not isinstance(prob.scalarization, WeightedSum):
            mu = min(mu * cfg.penalty_growth, cfg.penalty_cap)

    # final state competes with the best iterate before the digital polish
    w_eff = eng.hybrid_combiners(z).effective()
    nr_, nc_ = eng.normalized(z, w_eff)
    if prob.penalty_value(nr_, nc_, cfg.penalty_cap) > best_score:
        f_rf, f_d = best_state
        f_d = scale_to_budget(f_d, eng.power, f_rf)
    f_d = _digital_refinement(eng, prob, f_rf, f_d, cfg, mu)
    analog = AnalogPrecoder(matrix=f_rf, spec=arch)
    precoder = HybridPrecoder.from_parts(analog, f_d, problem.power,
                                         normalize=True)
    t_final = precoder.effective()
    combiners = eng.hybrid_combiners(t_final)
    w_eff = combiners.effective()
    nr_, nc_ = eng.normalized(t_final, w_eff)
    final = _final_report(prob, nr_, nc_, eng, t_final, w_eff)
    return DesignResult(
        method="admm", status=status, precoder=precoder, fully_digital=None,
        combiners=combiners, objective_trace=np.asarray(obj_trace),
        primal_trace=np.asarray(primal_trace), dual_trace=np.asarray(dual_trace),
        residual_trace=None, seed=cfg.seed, config=cfg,
        scalarization=problem.scalarization, objective=problem.objective,
        final=final)


def _digital_least_squares(f_rf, targets, ridge: float) -> np.ndarray:
    """Per-carrier ridge least squares (F_rf^H F_rf + ridge I)^-1 F_rf^H M_k."""
    gram = f_rf.conj().T @ f_rf + ridge * np.eye(f_rf.shape[1])
    return np.stack([np.linalg.solve(gram, f_rf.conj().T @ m) for m in targets])


def _digital_refinement(eng: _Engine, prob: ScalarizedProblem, f_rf, f_d,
                        cfg: SolverConfig, mu: float):
    """Polish the digital matrices on the true scalarized objective with the
    analog stage held fixed (monotone projected-gradient descent)."""
    f_d = scale_to_budget(f_d, eng.power, f_rf)
    step = None
    for _ in range(cfg.refine_iterations):
        t = np.einsum("tr,krs->kts", f_rf, f_d)
        w_eff = eng.hybrid_combiners(t).effective()
        nr_, nc_ = eng.normalized(t, w_eff)
        obj = prob.penalty_value(nr_, nc_, mu)
        wr, wc = prob.solver_weights(nr_, nc_, mu)
        wr_raw, wc_raw = eng.raw_weights(wr, wc)
        g_t = np.zeros_like(t)
        if wr_raw != 0.0:
            g_t += wr_raw * eng.radar_grad(t)
        if wc_raw != 0.0:
            g_t += wc_raw * eng.comm_grad(t, w_eff)
        g_d = np.einsum("tr,kts->krs", np.conj(f_rf), g_t)
        gnorm = np.linalg.norm(g_d)
        if gnorm < 1e-14:
            break
        if step is None:
            step = 0.1 * np.linalg.norm(f_d) / gnorm
        accepted = False
        while step >= cfg.fd_min_step:
            cand = scale_to_budget(f_d - step * g_d, eng.power, f_rf)
            t2 = np.einsum("tr,krs->kts", f_rf, cand)
            w2 = eng.hybrid_combiners(t2).effective()
            nr2, nc2 = eng.normalized(t2, w2)
            if prob.penalty_value(nr2, nc2, mu) <= obj:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        f_d = cand
        step *= 1.5
    return f_d


# -- combiner design and dispatch ----------------------------------------------

def design_combiners(ch: ChannelSet, p: HybridPrecoder,
                     noise_variance: float | None = None,
                     n_rx_rf: int | None = None,
                     ridge: float = 1e-12) -> HybridCombiner:
    """Receive combiners for a fixed precoder.

    Analog part: phase projection of the dominant left subspace of the
    user's stacked effective channels (full connection at the users).
    Digital part: per-subcarrier MMSE (Wiener) solution given the analog part.
    """
    sigma2 = ch.noise_variance if noise_variance is None else noise_variance
    if n_rx_rf is None:
        raise ValueError("n_rx_rf (receive RF chains) must be provided")
    return _hybrid_combiners(ch.h, p.effective(), sigma2, n_rx_rf, ridge)


def _hybrid_combiners(h, t_eff, sigma2, n_rx_rf, ridge) -> HybridCombiner:
    """Combiners of design_combiners on raw arrays h (K, U, N_r, N_t) and
    t_eff (K, N_t, N_s); the solver engine calls it too."""
    K, U, nr, _ = h.shape
    w_rf = np.empty((U, nr, n_rx_rf), dtype=complex)
    for u in range(U):
        stack = np.concatenate([h[k, u] @ t_eff[k] for k in range(K)], axis=1)
        uleft, _, _ = np.linalg.svd(stack, full_matrices=True)
        w_rf[u] = np.exp(1j * np.angle(uleft[:, :n_rx_rf]))
    w_d = np.empty((K, U, n_rx_rf, t_eff.shape[2]), dtype=complex)
    eye = np.eye(n_rx_rf)
    for k in range(K):
        for u in range(U):
            ht = h[k, u] @ t_eff[k]
            a = w_rf[u].conj().T @ ht
            rz = a @ a.conj().T + sigma2 * (w_rf[u].conj().T @ w_rf[u])
            w_d[k, u] = np.linalg.solve(rz + ridge * eye, a)
    return HybridCombiner(analog=w_rf, digital=w_d)


METHOD_TWO_STAGE = "two_stage"
METHOD_ADMM = "admm"


def solve(problem: DesignProblem, method: str, cfg: SolverConfig,
          init=None) -> DesignResult:
    """Dispatch to the two-stage or consensus-ADMM designs.

    The two-stage route approximates a fully digital optimum and cannot
    honor epsilon-constraints, so that combination is rejected.
    """
    if method not in (METHOD_TWO_STAGE, METHOD_ADMM):
        raise ValueError(f"unknown method {method!r}")
    if method == METHOD_TWO_STAGE and isinstance(problem.scalarization,
                                                 EpsilonConstraint):
        raise UnsupportedCombinationError(
            "two-stage design cannot enforce epsilon-constraints")
    if method == METHOD_ADMM:
        return design_consensus_admm(problem, cfg, init=init)

    fd = design_fully_digital(problem, cfg)
    precoder, residuals = factorize_two_stage(
        fd.fully_digital, problem.architecture, cfg, problem.power)
    combiners = design_combiners(problem.channels, precoder,
                                 n_rx_rf=problem.dims.n_rx_rf)
    eng = _Engine(problem)
    prob = make_problem(problem.objective, problem.scalarization)
    t_eff = precoder.effective()
    w_eff = combiners.effective()
    nr_, nc_ = eng.normalized(t_eff, w_eff)
    final = _final_report(prob, nr_, nc_, eng, t_eff, w_eff)
    return DesignResult(
        method=METHOD_TWO_STAGE, status=fd.status, precoder=precoder,
        fully_digital=fd.fully_digital, combiners=combiners,
        objective_trace=fd.objective_trace, primal_trace=np.asarray([]),
        dual_trace=np.asarray([]), residual_trace=residuals, seed=cfg.seed,
        config=cfg, scalarization=problem.scalarization,
        objective=problem.objective, final=final)


# -- normalization pre-solves ---------------------------------------------------

def compute_normalizers(problem: DesignProblem, cfg: SolverConfig):
    """Utopia/nadir normalizers from two single-objective fully digital solves.

    Returns (objective spec with normalizers filled, info dict). The best
    value of each metric maps to 0 and its value at the other metric's
    optimum maps to 1.
    """
    base = ObjectiveSpec(radar_metric=problem.objective.radar_metric,
                         comm_metric=problem.objective.comm_metric)
    radar_only = replace(problem, objective=base,
                         scalarization=WeightedSum(1.0, 0.0))
    comm_only = replace(problem, objective=base,
                        scalarization=WeightedSum(0.0, 1.0))
    res_r = design_fully_digital(radar_only, cfg)
    res_c = design_fully_digital(comm_only, cfg)
    r_best, c_at_r = res_r.final["radar_raw"], res_r.final["comm_raw"]
    r_at_c, c_best = res_c.final["radar_raw"], res_c.final["comm_raw"]
    r_scale = max(r_at_c - r_best, 1e-9 * max(1.0, abs(r_best)))
    c_scale = max(c_at_r - c_best, 1e-9 * max(1.0, abs(c_best)))
    spec = replace(problem.objective,
                   radar_norm=Normalizer(r_best, r_scale),
                   comm_norm=Normalizer(c_best, c_scale))
    info = {"radar_best": r_best, "radar_worst": r_at_c,
            "comm_best": c_best, "comm_worst": c_at_r,
            "radar_result": res_r, "comm_result": res_c}
    return spec, info
