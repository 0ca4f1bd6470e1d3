"""The stacked (K, U, ...) kernels of metrics and the solver engine against
per-(carrier, user) reference loops: stacked matmul, solve, inv and slogdet
run the same LAPACK/BLAS routine once per slice, and sums run in (k, u)
order, so every result must be equal bit for bit."""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from conftest import small_dims, small_scene
from dfrcbeam.architecture import ArchitectureSpec
from dfrcbeam.channel import ClusterModel, gen_channel
from dfrcbeam.metrics import (pattern_of_effective, radar_mi_of_arrays,
                              scale_to_budget, se_of_arrays, ssme_of_pattern)
from dfrcbeam.scalarize import ObjectiveSpec, WeightedSum
from dfrcbeam.solvers import (DesignProblem, LN2, _Engine, _hybrid_combiners,
                              _digital_least_squares)

# (K, U, N_s): K = 1, U = 1, two streams per user over two users, and 16
# carriers, enough terms for np.sum's pairwise order to change the bits of
# both the SE and the radar MI sums
CASES = {"K1": (1, 2, 2), "U1": (3, 1, 2), "U2_s2": (2, 2, 4),
         "K16": (16, 2, 2)}
PAIRS = (("ssme", "mmse"), ("neg_radar_mi", "neg_se"))


def _engine(case, pair):
    k, u, ns = CASES[case]
    dims = small_dims(n_subcarriers=k, n_users=u, n_streams=ns, n_tx_rf=ns,
                      n_rx_antennas=4, n_rx_rf=2)
    ch = gen_channel(dims, ClusterModel(3, 4), seed=5, noise_variance=0.3)
    problem = DesignProblem(
        dims=dims, channels=ch,
        scene=small_scene(n_grid=61, angles=(-0.4, 0.2), gains=(1.0, 0.6j)),
        architecture=ArchitectureSpec("full", dims.n_tx_antennas, ns),
        objective=ObjectiveSpec(*pair), scalarization=WeightedSum(0.5, 0.5))
    rng = np.random.default_rng(sum(CASES[case]))
    shape = (k, dims.n_tx_antennas, ns)
    t = scale_to_budget(rng.standard_normal(shape)
                        + 1j * rng.standard_normal(shape), 1.0)
    eng = _Engine(problem)
    return eng, t, eng.wiener_unconstrained(t)


# -- per-(k, u) reference loops ------------------------------------------------

def _ref_se(h, t_eff, w_eff, sigma2):
    K, U = h.shape[:2]
    ns = t_eff.shape[2]
    s_pu = ns // U
    total, regularized = 0.0, False
    for k in range(K):
        for u in range(U):
            w = w_eff[k, u]
            cf = w.conj().T @ h[k, u] @ t_eff[k]
            own = slice(u * s_pu, (u + 1) * s_pu)
            g = cf[:, own]
            other = np.delete(cf, np.s_[own], axis=1)
            r = other @ other.conj().T + sigma2 * (w.conj().T @ w)
            try:
                rinv_g = np.linalg.solve(r, g)
            except np.linalg.LinAlgError:
                regularized = True
                rinv_g = np.linalg.solve(r + 1e-12 * np.eye(ns), g)
            _, logdet = np.linalg.slogdet(np.eye(s_pu) + g.conj().T @ rinv_g)
            total += logdet / np.log(2.0)
    return float(total) / K, regularized


def _ref_radar_mi(b, t_eff, sigma2):
    total = 0.0
    for k in range(t_eff.shape[0]):
        tk = b @ t_eff[k]
        m = np.eye(t_eff.shape[2]) + (tk.conj().T @ tk) / sigma2
        total += np.linalg.slogdet(m)[1] / np.log(2.0)
    return float(total)


def _ref_wiener(eng, t):
    w = np.empty((eng.K, eng.U, eng.nr, eng.ns), dtype=complex)
    for k in range(eng.K):
        for u in range(eng.U):
            ht = eng.h[k, u] @ t[k]
            cov = ht @ ht.conj().T + eng.sigma2 * np.eye(eng.nr)
            w[k, u] = np.linalg.solve(cov, ht)
    return w


def _ref_combiner_digital(h, t_eff, sigma2, w_rf, ridge):
    K, U = h.shape[:2]
    nrf = w_rf.shape[2]
    w_d = np.empty((K, U, nrf, t_eff.shape[2]), dtype=complex)
    for k in range(K):
        for u in range(U):
            a = w_rf[u].conj().T @ (h[k, u] @ t_eff[k])
            rz = a @ a.conj().T + sigma2 * (w_rf[u].conj().T @ w_rf[u])
            w_d[k, u] = np.linalg.solve(rz + ridge * np.eye(nrf), a)
    return w_d


def _ref_comm_grad(eng, t, w_eff):
    g = np.zeros_like(t)
    for k in range(eng.K):
        for u in range(eng.U):
            w = w_eff[k, u]
            b = w.conj().T @ eng.h[k, u]
            if eng.objective.comm_metric == "mmse":
                g[k] += b.conj().T @ (b @ t[k] - np.eye(eng.ns))
                continue
            c_full = b @ t[k]
            noise = eng.sigma2 * (w.conj().T @ w)
            sel = np.ones(eng.ns)
            sel[u * eng.s_pu:(u + 1) * eng.s_pu] = 0.0
            c_int = c_full * sel[None, :]
            ridge = 1e-12 * np.eye(eng.ns)
            g_tot = b.conj().T @ np.linalg.solve(
                c_full @ c_full.conj().T + noise + ridge, c_full)
            g_int = b.conj().T @ np.linalg.solve(
                c_int @ c_int.conj().T + noise + ridge, c_int)
            g[k] += -(g_tot - g_int) / (eng.K * LN2)
    return g


def _ref_radar_grad(eng, t):
    g = np.zeros_like(t)
    if eng.objective.radar_metric == "ssme":
        pattern = pattern_of_effective(t, eng.grid_u)
        _, beta = ssme_of_pattern(pattern, eng.desired)
        weight = pattern - beta * eng.desired
        for k in range(eng.K):
            resp = eng.a_grid @ t[k]
            g[k] = (2.0 / eng.n_g) * (eng.a_grid.conj().T
                                      @ (weight[:, None] * resp))
        return g
    for k in range(eng.K):
        m = np.eye(eng.ns) + (t[k].conj().T @ eng.bhb @ t[k]) / eng.sigma2
        g[k] = -(eng.bhb @ t[k] @ np.linalg.inv(m)) / (eng.sigma2 * LN2)
    return g


def _ref_rate_quadratic(eng, z, w_eff, k, u, ridge):
    own = slice(u * eng.s_pu, (u + 1) * eng.s_pu)
    w_own = w_eff[k, u][:, own]
    b = w_own.conj().T @ eng.h[k, u]
    bz = b @ z[k]
    e = np.eye(eng.s_pu, dtype=complex) - bz[:, own]
    other = np.delete(bz, np.s_[own], axis=1)
    err = (e @ e.conj().T + other @ other.conj().T
           + eng.sigma2 * (w_own.conj().T @ w_own))
    weight = np.linalg.inv(err + ridge * np.eye(eng.s_pu))
    scale = 1.0 / (eng.K * LN2)
    rhs = np.zeros((eng.nt, eng.ns), dtype=complex)
    rhs[:, own] = scale * (b.conj().T @ weight)
    return scale * (b.conj().T @ weight @ b), rhs


# -- tests ----------------------------------------------------------------------

@pytest.mark.parametrize("case", CASES)
def test_metric_kernels_equal_loops(case):
    eng, t, w_eff = _engine(case, PAIRS[1])
    se, reg = se_of_arrays(eng.h, t, w_eff, eng.sigma2, return_regularized=True)
    assert (se, reg) == _ref_se(eng.h, t, w_eff, eng.sigma2)
    assert radar_mi_of_arrays(eng.b_tgt, t, eng.sigma2) == \
        _ref_radar_mi(eng.b_tgt, t, eng.sigma2)
    assert_array_equal(w_eff, _ref_wiener(eng, t))


@pytest.mark.parametrize("case", CASES)
def test_hybrid_combiners_equal_loop(case):
    eng, t, _ = _engine(case, PAIRS[0])
    comb = _hybrid_combiners(eng.h, t, eng.sigma2, eng.nrf_r, 1e-12)
    for u in range(eng.U):
        stack = np.concatenate([eng.h[k, u] @ t[k] for k in range(eng.K)], axis=1)
        uleft = np.linalg.svd(stack, full_matrices=True)[0]
        assert_array_equal(comb.analog[u],
                           np.exp(1j * np.angle(uleft[:, :eng.nrf_r])))
    assert_array_equal(comb.digital, _ref_combiner_digital(
        eng.h, t, eng.sigma2, comb.analog, 1e-12))


@pytest.mark.parametrize("pair", PAIRS, ids="+".join)
@pytest.mark.parametrize("case", CASES)
def test_gradients_equal_loops(case, pair):
    eng, t, w_eff = _engine(case, pair)
    assert_array_equal(eng.comm_grad(t, w_eff), _ref_comm_grad(eng, t, w_eff))
    assert_array_equal(eng.radar_grad(t), _ref_radar_grad(eng, t))


@pytest.mark.parametrize("case", CASES)
def test_rate_quadratic_equals_loop(case):
    eng, z, _ = _engine(case, PAIRS[1])
    w_eff = eng.hybrid_combiners(z).effective()
    q, rhs = eng.rate_quadratic_ku(z, w_eff, 1e-12)
    for k in range(eng.K):
        for u in range(eng.U):
            q_ref, rhs_ref = _ref_rate_quadratic(eng, z, w_eff, k, u, 1e-12)
            assert_array_equal(q[k, u], q_ref)
            assert_array_equal(rhs[k, u], rhs_ref)


@pytest.mark.parametrize("case", CASES)
def test_digital_least_squares_equals_loop(case):
    eng, t, _ = _engine(case, PAIRS[0])
    f_rf = np.exp(1j * np.arange(eng.nt * eng.ns).reshape(eng.nt, eng.ns))
    gram = f_rf.conj().T @ f_rf + 1e-12 * np.eye(eng.ns)
    ref = np.stack([np.linalg.solve(gram, f_rf.conj().T @ m) for m in t])
    assert_array_equal(_digital_least_squares(f_rf, t, 1e-12), ref)


@pytest.mark.parametrize("case", CASES)
def test_pattern_cache_equals_fresh_evaluation(case):
    eng, t, _ = _engine(case, PAIRS[0])
    first = eng.pattern(t)
    assert eng.pattern(t) is first
    assert_array_equal(first, pattern_of_effective(t, eng.grid_u))
    other = 2.0 * t
    assert_array_equal(eng.pattern(other), pattern_of_effective(other, eng.grid_u))
    assert_array_equal(eng.radar_value(t), ssme_of_pattern(
        pattern_of_effective(t, eng.grid_u), eng.desired)[0])
