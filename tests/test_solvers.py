import numpy as np
import pytest
from dataclasses import replace

from conftest import random_precoder, small_dims, small_scene
from dfrcbeam.architecture import ArchitectureSpec, feasibility_check, random_feasible
from dfrcbeam.channel import ClusterModel, SystemDims, gen_channel, steering_vector
from dfrcbeam.metrics import (HybridCombiner, multiuser_mmse,
                              pattern_of_effective, per_carrier_pattern,
                              radar_mi, scale_to_budget, se_of_arrays,
                              spectral_efficiency)
from dfrcbeam.scalarize import (EpsilonConstraint, MinMax, ObjectiveSpec,
                                WeightedSum)
from dfrcbeam.solvers import (DesignProblem, SolverConfig,
                              UnsupportedCombinationError, compute_normalizers,
                              constructive_split, design_combiners,
                              design_consensus_admm, design_fully_digital,
                              factorize_two_stage, solve, _Engine)


def _problem(dims=None, seed=1, noise=0.25, arch=None, objective=None,
             scalarization=None, angles=(-0.4,), gains=(1.0,),
             mainlobe=((-0.5, -0.3),), n_grid=121):
    dims = dims or small_dims()
    ch = gen_channel(dims, ClusterModel(3, 4), seed=seed, noise_variance=noise)
    arch = arch or ArchitectureSpec("full", dims.n_tx_antennas, dims.n_tx_rf)
    return DesignProblem(
        dims=dims, channels=ch,
        scene=small_scene(n_grid=n_grid, angles=angles, gains=gains,
                          mainlobe=mainlobe),
        architecture=arch,
        objective=objective or ObjectiveSpec("ssme", "mmse"),
        scalarization=scalarization or WeightedSum(0.5, 0.5), power=1.0)


CFG = SolverConfig(max_iterations=80, seed=0, refine_iterations=30)


# -- fully digital -------------------------------------------------------------

def test_fd_radar_only_aligns_with_target_steering():
    # eigen-oracle: the rank-one MI problem is solved by the conjugate steering
    dims = small_dims(n_subcarriers=1, n_users=1, n_streams=1, n_tx_rf=1)
    prob = _problem(dims=dims, angles=(0.35,), mainlobe=((0.25, 0.45),),
                    objective=ObjectiveSpec("neg_radar_mi", "mmse"),
                    scalarization=WeightedSum(1.0, 0.0))
    res = design_fully_digital(prob, CFG)
    t = res.fully_digital[0][:, 0]
    a_conj = np.conj(steering_vector(0.35, dims.n_tx_antennas))
    cos = abs(np.vdot(a_conj, t)) / (np.linalg.norm(a_conj) * np.linalg.norm(t))
    assert cos >= 0.99


def test_fd_comm_only_hits_svd_bound():
    # single user, N_s = 1, K = 1: SE within 2% of log2(1 + P smax^2 / sigma2)
    dims = small_dims(n_subcarriers=1, n_users=1, n_streams=1, n_tx_rf=1)
    prob = _problem(dims=dims, objective=ObjectiveSpec("ssme", "neg_se"),
                    scalarization=WeightedSum(0.0, 1.0))
    res = design_fully_digital(prob, CFG)
    se = se_of_arrays(prob.channels.h, res.fully_digital,
                      res.combiners.effective(), prob.channels.noise_variance)
    smax = np.linalg.svd(prob.channels.h[0, 0], compute_uv=False)[0]
    bound = np.log2(1 + 1.0 * smax ** 2 / prob.channels.noise_variance)
    assert se >= 0.98 * bound
    assert se <= bound + 1e-9


def test_fd_power_and_monotone_trace():
    prob = _problem()
    res = design_fully_digital(prob, CFG)
    powers = np.sum(np.abs(res.fully_digital) ** 2, axis=(1, 2))
    assert np.allclose(powers, 1.0 / prob.dims.n_subcarriers, atol=1e-10)
    diffs = np.diff(res.objective_trace)
    assert np.all(diffs <= 1e-9 * np.maximum(1.0, np.abs(res.objective_trace[:-1])))


def test_fd_deterministic():
    a = design_fully_digital(_problem(), CFG)
    b = design_fully_digital(_problem(), CFG)
    assert np.array_equal(a.objective_trace, b.objective_trace)
    assert np.array_equal(a.fully_digital, b.fully_digital)


# -- two-stage factorization -----------------------------------------------------

def test_constructive_split_exact():
    rng = np.random.default_rng(0)
    f = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
    f_rf, f_d = constructive_split(f, 4)
    assert np.allclose(np.abs(f_rf), 1.0)
    assert np.linalg.norm(f - f_rf @ f_d) < 1e-12


def test_factorize_constructive_residual():
    # n_rf = 2 n_s, full connection, single carrier
    rng = np.random.default_rng(1)
    f_star = rng.standard_normal((1, 8, 2)) + 1j * rng.standard_normal((1, 8, 2))
    spec = ArchitectureSpec("full", 8, 4)
    precoder, residuals = factorize_two_stage(f_star, spec, CFG, power=1.0)
    assert residuals[-1] <= 1e-6
    ok, report = feasibility_check(precoder.analog)
    assert ok, report


def test_factorize_fixed_point():
    p = random_precoder(ArchitectureSpec("full", 8, 2), 2, 2, 1.0, seed=3)
    f_star = p.effective()
    _, residuals = factorize_two_stage(f_star, p.analog.spec, CFG, power=1.0,
                                       analog_init=p.analog.matrix)
    assert residuals[-1] <= 1e-10


def test_factorize_residual_monotone():
    rng = np.random.default_rng(2)
    f_star = rng.standard_normal((3, 8, 2)) + 1j * rng.standard_normal((3, 8, 2))
    spec = ArchitectureSpec("full", 8, 2)
    _, residuals = factorize_two_stage(f_star, spec, CFG, power=1.0)
    assert np.all(np.diff(residuals) <= 0)


def test_factorize_partial_worse_than_full():
    # feasible-set nesting check, median over 100 random targets
    rng = np.random.default_rng(3)
    full = ArchitectureSpec("full", 8, 2)
    part = ArchitectureSpec("partial", 8, 2)
    diffs = []
    for _ in range(100):
        f_star = rng.standard_normal((2, 8, 2)) + 1j * rng.standard_normal((2, 8, 2))
        _, r_full = factorize_two_stage(f_star, full, CFG, power=1.0)
        _, r_part = factorize_two_stage(f_star, part, CFG, power=1.0)
        diffs.append(r_part[-1] - r_full[-1])
    assert np.median(diffs) >= 0


# -- consensus ADMM --------------------------------------------------------------

def test_admm_contracts_and_determinism():
    prob = _problem()
    cfg = replace(CFG, max_iterations=200)
    a = design_consensus_admm(prob, cfg)
    b = design_consensus_admm(prob, cfg)
    assert np.array_equal(a.objective_trace, b.objective_trace)
    assert np.array_equal(a.precoder.digital, b.precoder.digital)
    ok, report = feasibility_check(a.precoder.analog)
    assert ok, report
    assert np.allclose(a.precoder.per_carrier_power(),
                       1.0 / prob.dims.n_subcarriers, atol=1e-8)
    if a.status == "converged":
        assert a.primal_trace[-1] < cfg.tol_primal


def test_admm_converges_on_small_instance():
    prob = _problem(dims=small_dims(n_subcarriers=1, n_users=1))
    cfg = replace(CFG, max_iterations=400)
    res = design_consensus_admm(prob, cfg)
    assert res.status == "converged"
    assert res.primal_trace[-1] < cfg.tol_primal


def test_admm_feasible_even_at_max_iter():
    prob = _problem(arch=ArchitectureSpec("dynamic", 8, 2, n_phase_shifters=8))
    cfg = replace(CFG, max_iterations=5)
    res = design_consensus_admm(prob, cfg)
    assert res.status == "max_iter"
    ok, report = feasibility_check(res.precoder.analog)
    assert ok, report
    assert np.allclose(res.precoder.per_carrier_power(), 0.5, atol=1e-8)


def test_admm_warm_start_keeps_quality():
    prob = _problem()
    base = design_consensus_admm(prob, CFG)
    warm = design_consensus_admm(prob, CFG,
                                 init=(base.precoder.analog.matrix,
                                       base.precoder.digital))
    assert warm.final["objective"] <= base.final["objective"] + 1e-6


# -- combiner design --------------------------------------------------------------

def test_combiners_noise_dominated_matched_filter():
    dims = small_dims(n_rx_rf=1, n_users=1, n_streams=1, n_tx_rf=1)
    ch = gen_channel(dims, ClusterModel(2, 3), seed=5, noise_variance=1e6)
    p = random_precoder(ArchitectureSpec("full", 8, 1), 2, 1, 1.0, seed=5)
    c = design_combiners(ch, p, n_rx_rf=1)
    for k in range(2):
        a = c.analog[0].conj().T @ ch.h[k, 0] @ p.effective()[k]
        w = c.digital[k, 0]
        cos = abs(np.vdot(a, w)) / (np.linalg.norm(a) * np.linalg.norm(w))
        assert cos >= 0.99


def test_combiners_beat_random_competitors(channel_small):
    dims, ch = channel_small
    p = random_precoder(ArchitectureSpec("full", 8, 2), 2, 2, 1.0, seed=7)
    c = design_combiners(ch, p, n_rx_rf=2)
    mmse = multiuser_mmse(ch, p, c)
    rng = np.random.default_rng(1)
    for _ in range(100):
        rand = HybridCombiner(
            analog=np.exp(1j * rng.uniform(0, 2 * np.pi, (2, 2, 2))),
            digital=(rng.standard_normal((2, 2, 2, 2))
                     + 1j * rng.standard_normal((2, 2, 2, 2))))
        assert mmse <= multiuser_mmse(ch, p, rand) + 1e-9


def test_combiners_match_unconstrained_wiener_when_square():
    # N_r = N_rf_r: invertible analog stage makes the Wiener digital exact
    dims = small_dims(n_rx_antennas=2, n_rx_rf=2)
    ch = gen_channel(dims, ClusterModel(2, 3), seed=9, noise_variance=0.3)
    p = random_precoder(ArchitectureSpec("full", 8, 2), 2, 2, 1.0, seed=9)
    c = design_combiners(ch, p, n_rx_rf=2)
    mmse_hybrid = multiuser_mmse(ch, p, c)
    t_eff = p.effective()
    w_unc = np.empty((2, 2, 2, 2), dtype=complex)
    for k in range(2):
        for u in range(2):
            ht = ch.h[k, u] @ t_eff[k]
            cov = ht @ ht.conj().T + 0.3 * np.eye(2)
            w_unc[k, u] = np.linalg.solve(cov, ht)
    mmse_unc = 0.0
    eye = np.eye(2)
    for k in range(2):
        for u in range(2):
            g = w_unc[k, u].conj().T @ ch.h[k, u] @ t_eff[k]
            mmse_unc += (np.linalg.norm(eye - g) ** 2
                         + 0.3 * np.linalg.norm(w_unc[k, u]) ** 2)
    assert mmse_hybrid == pytest.approx(mmse_unc, abs=1e-9)


def test_engine_entry_points_equal_public_ones():
    # what a solver optimizes and what a sweep reports come from one kernel
    prob = _problem(angles=(-0.4, 0.3), gains=(1.0, 0.5j),
                    objective=ObjectiveSpec("neg_radar_mi", "neg_se"))
    dims = prob.dims
    p = random_precoder(prob.architecture, dims.n_subcarriers, dims.n_streams,
                        1.0, seed=4)
    t = p.effective()
    eng = _Engine(prob)
    ours = eng.hybrid_combiners(t)
    theirs = design_combiners(prob.channels, p, n_rx_rf=dims.n_rx_rf)
    np.testing.assert_array_equal(ours.analog, theirs.analog)
    np.testing.assert_array_equal(ours.digital, theirs.digital)
    assert eng._radar_mi(t) == radar_mi(p, prob.scene,
                                        prob.channels.noise_variance)
    us = prob.scene.grid.points
    np.testing.assert_array_equal(pattern_of_effective(t, us),
                                  per_carrier_pattern(t, us).sum(0))


def test_budget_scaling_rejects_zero_carrier():
    x = np.ones((3, 4, 2), dtype=complex)
    np.testing.assert_allclose(
        np.linalg.norm(scale_to_budget(x, 3.0), axis=(1, 2)), 1.0)
    x[1] = 0.0
    with pytest.raises(ValueError, match="carrier 1"):
        scale_to_budget(x, 3.0)
    with pytest.raises(ValueError, match="carrier 1"):
        scale_to_budget(x, 3.0, analog=np.ones((5, 4)))


# -- dispatch and scalarization interplay -----------------------------------------

def test_solve_two_stage_dispatch():
    res = solve(_problem(), "two_stage", CFG)
    assert res.method == "two_stage"
    assert res.residual_trace is not None
    assert res.precoder is not None and res.fully_digital is not None


def test_solve_rejects_two_stage_epsilon():
    prob = _problem(scalarization=EpsilonConstraint("radar", 1.0))
    with pytest.raises(UnsupportedCombinationError):
        solve(prob, "two_stage", CFG)
    with pytest.raises(ValueError):
        solve(_problem(), "gradient", CFG)


def test_solve_admm_minmax_eta_feasible():
    prob = _problem(scalarization=MinMax())
    objective, _ = compute_normalizers(prob, CFG)
    res = solve(replace(prob, objective=objective), "admm", CFG)
    assert res.final["eta"] >= max(res.final["radar_norm"],
                                   res.final["comm_norm"]) - 1e-6


def test_epsilon_weak_pareto_consistency():
    # cross-formulation check: bound the secondary at the weighted-sum
    # solution's level; the primary must not degrade beyond 2%
    prob = _problem(seed=4)
    cfg = replace(CFG, max_iterations=150)
    objective, _ = compute_normalizers(prob, cfg)
    ws = solve(replace(prob, objective=objective,
                       scalarization=WeightedSum(0.5, 0.5)), "admm", cfg)
    eps = ws.final["comm_norm"]
    res = solve(replace(prob, objective=objective,
                        scalarization=EpsilonConstraint("radar", eps)),
                "admm", cfg)
    assert res.final["radar_norm"] <= ws.final["radar_norm"] \
        + 0.02 * max(1.0, abs(ws.final["radar_norm"]))
    assert res.final["violation"] <= 0.05


def test_fd_beats_hybrid_median():
    # the fully digital curve is the performance upper bound (median, 20 seeds)
    gaps = []
    for seed in range(20):
        prob = _problem(seed=seed, objective=ObjectiveSpec("ssme", "neg_se"),
                        scalarization=WeightedSum(0.3, 0.7))
        objective, _ = compute_normalizers(prob, CFG)
        prob = replace(prob, objective=objective)
        fd = design_fully_digital(prob, CFG)
        se_fd = se_of_arrays(prob.channels.h, fd.fully_digital,
                             fd.combiners.effective(),
                             prob.channels.noise_variance)
        admm = solve(prob, "admm", CFG)
        se_h = spectral_efficiency(prob.channels, admm.precoder, admm.combiners)
        two = solve(prob, "two_stage", CFG)
        se_t = spectral_efficiency(prob.channels, two.precoder, two.combiners)
        gaps.append((se_fd - se_h, se_fd - se_t))
    gaps = np.array(gaps)
    assert np.median(gaps[:, 0]) >= 0
    assert np.median(gaps[:, 1]) >= 0


def test_normalizers_bracket_weight_sweep():
    # sweep oracle: normalized metrics of 21 weighted solves within [-5%, 105%]
    prob = _problem(seed=6)
    objective, _ = compute_normalizers(prob, CFG)
    for w in np.linspace(0.0, 1.0, 21):
        res = design_fully_digital(
            replace(prob, objective=objective,
                    scalarization=WeightedSum(float(w), float(1 - w))), CFG)
        assert -0.05 <= res.final["radar_norm"] <= 1.05
        assert -0.05 <= res.final["comm_norm"] <= 1.05
