import numpy as np
import pytest

from conftest import random_precoder, small_dims, small_scene
from dfrcbeam.architecture import AnalogPrecoder, ArchitectureSpec, random_feasible
from dfrcbeam.channel import ClusterModel, gen_channel, make_grid, steering_vector
from dfrcbeam.metrics import (ContractError, HybridCombiner, HybridPrecoder,
                              MetricReport, RadarScene, beampattern,
                              beampattern_at, crlb_doa, detection_probability,
                              evaluate_metrics, fisher_information,
                              grid_mean_power, multiuser_mmse, psl_isl,
                              radar_mi, radar_sinr, spectral_efficiency, ssme,
                              ssme_of_pattern, virtual_mean_vector)
from dfrcbeam.solvers import design_combiners


def _steered_precoder(u0, nt, power=1.0):
    spec = ArchitectureSpec("full", nt, 1)
    analog = AnalogPrecoder(np.conj(steering_vector(u0, nt))[:, None], spec)
    digital = np.full((1, 1, 1), np.sqrt(power / nt), dtype=complex)
    return HybridPrecoder.from_parts(analog, digital, power, normalize=False)


def test_precoder_power_invariant():
    spec = ArchitectureSpec("full", 4, 2)
    analog = random_feasible(spec, 0)
    bad = np.ones((2, 2, 1), dtype=complex)
    with pytest.raises(ValueError):
        HybridPrecoder(analog=analog, digital=bad, power=1.0)
    ok = HybridPrecoder.from_parts(analog, bad, 1.0)
    assert np.allclose(ok.per_carrier_power(), 0.5)


def test_beampattern_single_antenna_is_omni():
    p = _steered_precoder(0.0, 1, power=2.0)
    grid = make_grid(41)
    pat = beampattern(p, grid)
    assert np.allclose(pat, 2.0)


def test_beampattern_coherent_gain():
    nt = 8
    p = _steered_precoder(0.3, nt)
    assert beampattern_at(p, [0.3])[0] == pytest.approx(nt)


def test_beampattern_grid_mean_equals_power():
    # orthogonality of complex exponentials over u in [-1, 1]
    grid = make_grid(2001)
    p = random_precoder(ArchitectureSpec("full", 8, 2), 2, 2, 3.0, seed=5)
    pat = beampattern(p, grid)
    assert grid_mean_power(pat, grid) == pytest.approx(3.0, rel=1e-3)
    assert np.all(pat >= 0)


def test_beampattern_rejects_infeasible():
    spec = ArchitectureSpec("full", 4, 1)
    analog = AnalogPrecoder(0.5 * np.ones((4, 1), dtype=complex), spec)
    p = HybridPrecoder(analog=analog,
                       digital=np.ones((1, 1, 1), dtype=complex), power=1.0)
    with pytest.raises(ContractError):
        beampattern(p, make_grid(11))


def test_ssme_perfect_match():
    p = random_precoder(ArchitectureSpec("full", 8, 2), 2, 2, 1.0, seed=1)
    scene = small_scene()
    pat = beampattern(p, scene.grid)
    val, beta = ssme_of_pattern(pat, pat)
    assert val == pytest.approx(0.0, abs=1e-20)
    assert beta == pytest.approx(1.0)


def test_ssme_scale_invariant_in_desired():
    p = random_precoder(ArchitectureSpec("full", 8, 2), 2, 2, 1.0, seed=2)
    scene = small_scene()
    pat = beampattern(p, scene.grid)
    v1, b1 = ssme_of_pattern(pat, scene.desired)
    v2, b2 = ssme_of_pattern(pat, 3.7 * scene.desired)
    assert v1 == pytest.approx(v2)
    assert b2 == pytest.approx(b1 / 3.7)


def test_ssme_two_point_hand_oracle():
    # P = (1, 3), d = (1, 1): beta = 2, ssme = ((2-1)^2 + (2-3)^2) / 2 = 1
    val, beta = ssme_of_pattern(np.array([1.0, 3.0]), np.array([1.0, 1.0]))
    assert beta == pytest.approx(2.0)
    assert val == pytest.approx(1.0)


def test_ssme_degenerate_desired():
    val, beta = ssme_of_pattern(np.zeros(4), np.zeros(4))
    assert val == 0.0 and beta == 1.0


def test_psl_floor_and_flat():
    scene = small_scene(n_grid=41, mainlobe=((-0.6, -0.2),))
    mask = scene.mainlobe_mask()
    pat = np.where(mask, 1.0, 0.0)
    psl, isl = psl_isl(pat, scene)
    assert psl == -300.0 and isl == -300.0
    psl, isl = psl_isl(np.ones(41), scene)
    assert psl == pytest.approx(0.0)


def test_psl_matches_brute_force():
    scene = small_scene(n_grid=201, angles=(-0.4,), mainlobe=((-0.5, -0.3),))
    p = _steered_precoder(-0.4, 8)
    pat = beampattern(p, scene.grid)
    psl, isl = psl_isl(pat, scene)
    mask = scene.mainlobe_mask()
    expect = 10 * np.log10(pat[~mask].max() / pat[mask].max())
    assert psl == pytest.approx(expect)


def test_psl_domain_errors():
    scene = small_scene(n_grid=41, mainlobe=((-1.0, 1.0),))
    with pytest.raises(ValueError):
        psl_isl(np.ones(41), scene)


def test_radar_sinr_linear_and_steered():
    scene = small_scene(angles=(0.25,), gains=(2.0,), mainlobe=((0.2, 0.3),))
    nt = 8
    p = _steered_precoder(0.25, nt)
    s1 = radar_sinr(p, scene, 0.5)
    assert s1 == pytest.approx(abs(2.0) ** 2 * nt / 0.5, rel=1e-9)
    p2 = _steered_precoder(0.25, nt, power=2.0)
    assert radar_sinr(p2, scene, 0.5) == pytest.approx(2 * s1, rel=1e-9)
    with pytest.raises(ValueError):
        radar_sinr(p, scene, 0.0)


def test_detection_probability_trivials():
    assert detection_probability(0.0, 0.123) == pytest.approx(0.123, rel=1e-9)
    assert detection_probability(3.0, 1.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        detection_probability(1.0, 0.0)
    with pytest.raises(ValueError):
        detection_probability(-0.1, 0.5)


def test_detection_probability_monotone_grid():
    sinrs = np.linspace(0.0, 20.0, 20)
    pfas = np.logspace(-6, 0, 20)
    vals = np.array([[detection_probability(s, f) for f in pfas]
                     for s in sinrs])
    assert np.all(np.diff(vals, axis=0) >= -1e-12)
    assert np.all(np.diff(vals, axis=1) >= -1e-12)


def test_detection_probability_monte_carlo():
    rng = np.random.default_rng(3)
    sinr, pfa = 10.0, 1e-3
    n = 10 ** 6
    noise = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    stat = np.abs(np.sqrt(2 * sinr) + noise)
    mc = np.mean(stat > np.sqrt(-2 * np.log(pfa)))
    assert detection_probability(sinr, pfa) == pytest.approx(mc, abs=1e-2)


def test_radar_mi_trivials():
    scene = small_scene(angles=(0.2,), gains=(0.0,))
    p = random_precoder(ArchitectureSpec("full", 8, 2), 2, 2, 1.0, seed=3)
    assert radar_mi(p, scene, 0.5) == pytest.approx(0.0)

    scene1 = small_scene(angles=(0.2,), gains=(1.5,))
    p1 = _steered_precoder(0.2, 8)
    expect = np.log2(1 + abs(1.5) ** 2 * beampattern_at(p1, [0.2])[0] / 0.5)
    assert radar_mi(p1, scene1, 0.5) == pytest.approx(expect, rel=1e-9)


def test_radar_mi_monotone_in_power():
    scene = small_scene(angles=(-0.2, 0.5), gains=(1.0, 0.7),
                        mainlobe=((-0.3, -0.1),))
    vals = []
    for power in np.linspace(0.2, 4.0, 10):
        p = random_precoder(ArchitectureSpec("full", 8, 2), 2, 2, power, seed=6)
        vals.append(radar_mi(p, scene, 0.5))
    assert np.all(np.diff(vals) >= -1e-12)


def _siso_setup(h_val, power, sigma2):
    from dfrcbeam.channel import ChannelSet
    h = np.full((1, 1, 1, 1), h_val, dtype=complex)
    ch = ChannelSet(h=h, noise_variance=sigma2, seed=0)
    spec = ArchitectureSpec("full", 1, 1)
    analog = AnalogPrecoder(np.ones((1, 1), dtype=complex), spec)
    p = HybridPrecoder.from_parts(analog, np.sqrt(power) * np.ones((1, 1, 1)),
                                  power, normalize=False)
    c = HybridCombiner(analog=np.ones((1, 1, 1), dtype=complex),
                       digital=np.ones((1, 1, 1, 1), dtype=complex))
    return ch, p, c


def test_se_siso():
    ch, p, c = _siso_setup(0.8 + 0.4j, 2.0, 0.3)
    expect = np.log2(1 + 2.0 * abs(0.8 + 0.4j) ** 2 / 0.3)
    assert spectral_efficiency(ch, p, c) == pytest.approx(expect, rel=1e-12)


def _orthogonal_users(g0, g1, sigma2):
    """Two users on orthogonal channels: stream u feeds tx antenna u, which
    user u sees with gain g_u on rx antenna u; identity combiners."""
    from dfrcbeam.channel import ChannelSet
    h = np.zeros((1, 2, 2, 2), dtype=complex)
    h[0, 0, 0, 0] = g0
    h[0, 1, 1, 1] = g1
    ch = ChannelSet(h=h, noise_variance=sigma2, seed=0)
    spec = ArchitectureSpec("full", 2, 2)
    analog = AnalogPrecoder(np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex),
                            spec)
    # effective T with disjoint rows: stream u feeds tx antenna u only
    t_target = np.eye(2, dtype=complex)
    digital = np.linalg.solve(analog.matrix, t_target)[None]
    p = HybridPrecoder(analog=analog, digital=digital, power=2.0)
    eye = np.eye(2, dtype=complex)
    c = HybridCombiner(analog=np.stack([eye, eye]),
                       digital=np.stack([eye, eye])[None])
    return ch, p, c


def test_se_zero_precoder():
    ch, p, c = _siso_setup(1.0, 1.0, 0.5)
    c.digital = np.zeros_like(c.digital)
    # zero combiner: regularized branch, zero rate
    se, reg = spectral_efficiency(ch, p, c, return_regularized=True)
    assert se == pytest.approx(0.0)
    assert reg
    # U = 2 with only user 0's combiner zero: the flag is set and user 1
    # keeps its unregularized rate, read off a twin in which user 0 has its
    # combiner but no channel (a zero rate, exactly, without the ridge)
    ch, p, c = _orthogonal_users(1.3, 0.9, 0.2)
    c.digital[0, 0] = 0.0
    se, reg = spectral_efficiency(ch, p, c, return_regularized=True)
    ch_twin, p, c_twin = _orthogonal_users(0.0, 0.9, 0.2)
    se_twin, reg_twin = spectral_efficiency(ch_twin, p, c_twin,
                                            return_regularized=True)
    assert reg and not reg_twin
    assert se == se_twin == pytest.approx(np.log2(1 + abs(0.9) ** 2 / 0.2),
                                          rel=1e-12)


def test_se_orthogonal_users_add():
    # two users on orthogonal effective channels: SE = sum of single-user SEs
    ch, p, c = _orthogonal_users(1.3, 0.9, 0.2)
    se = spectral_efficiency(ch, p, c)
    se0 = np.log2(1 + abs(1.3) ** 2 / 0.2)
    se1 = np.log2(1 + abs(0.9) ** 2 / 0.2)
    assert se == pytest.approx(se0 + se1, rel=1e-9)


def test_mmse_zero_everything():
    dims = small_dims()
    ch = gen_channel(dims, ClusterModel(2, 3), seed=1, noise_variance=0.4)
    p = random_precoder(ArchitectureSpec("full", 8, 2), 2, 2, 1.0, seed=0)
    p.digital = np.zeros_like(p.digital)   # bypass the budget check
    c = HybridCombiner(analog=np.zeros((2, 2, 2), dtype=complex),
                       digital=np.zeros((2, 2, 2, 2), dtype=complex))
    assert multiuser_mmse(ch, p, c) == pytest.approx(2 * 2 * 2)  # N_s*U*K


def test_mmse_zero_forcing_noiseless():
    from dfrcbeam.channel import ChannelSet
    rng = np.random.default_rng(8)
    h = rng.standard_normal((1, 1, 2, 2)) + 1j * rng.standard_normal((1, 1, 2, 2))
    ch = ChannelSet(h=h, noise_variance=1e-30, seed=0)
    spec = ArchitectureSpec("full", 2, 2)
    analog = AnalogPrecoder(np.exp(1j * rng.uniform(0, 2 * np.pi, (2, 2))), spec)
    digital = rng.standard_normal((1, 2, 2)) + 1j * rng.standard_normal((1, 2, 2))
    p = HybridPrecoder.from_parts(analog, digital, 1.0)
    g = h[0, 0] @ p.effective()[0]
    w = np.linalg.inv(g).conj().T            # zero-forcing: W^H H T = I
    c = HybridCombiner(analog=np.eye(2, dtype=complex)[None],
                       digital=w[None, None])
    assert multiuser_mmse(ch, p, c) == pytest.approx(0.0, abs=1e-12)


def test_mmse_matches_monte_carlo(channel_small):
    dims, ch = channel_small
    p = random_precoder(ArchitectureSpec("full", 8, 2), 2, 2, 1.0, seed=4)
    c = design_combiners(ch, p, n_rx_rf=2)
    closed = multiuser_mmse(ch, p, c)
    rng = np.random.default_rng(12)
    t_eff, w_eff = p.effective(), c.effective()
    n = 10 ** 5
    total = 0.0
    for k in range(2):
        for u in range(2):
            s = (rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))) / np.sqrt(2)
            noise = (rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n)))
            noise *= np.sqrt(ch.noise_variance / 2)
            y = ch.h[k, u] @ t_eff[k] @ s + noise
            shat = w_eff[k, u].conj().T @ y
            total += np.mean(np.sum(np.abs(s - shat) ** 2, axis=0))
    assert closed == pytest.approx(total, rel=0.01)


def test_se_mmse_combiner_beats_random(channel_small):
    dims, ch = channel_small
    p = random_precoder(ArchitectureSpec("full", 8, 2), 2, 2, 1.0, seed=4)
    c = design_combiners(ch, p, n_rx_rf=2)
    se_mmse = spectral_efficiency(ch, p, c)
    rng = np.random.default_rng(0)
    for trial in range(100):
        rand = HybridCombiner(
            analog=np.exp(1j * rng.uniform(0, 2 * np.pi, (2, 2, 2))),
            digital=(rng.standard_normal((2, 2, 2, 2))
                     + 1j * rng.standard_normal((2, 2, 2, 2))))
        assert se_mmse >= spectral_efficiency(ch, p, rand) - 1e-9


def test_crlb_snr_scaling():
    p = random_precoder(ArchitectureSpec("full", 8, 2), 2, 2, 1.0, seed=5)
    scene1 = small_scene(angles=(0.1,), gains=(1.0,))
    scene2 = small_scene(angles=(0.1,), gains=(np.sqrt(2.0),))
    c1 = crlb_doa(p, scene1, 0.5, n_radar_rx=4)
    c2 = crlb_doa(p, scene2, 0.5, n_radar_rx=4)
    assert c2[0] == pytest.approx(c1[0] / 2.0, rel=1e-9)


def test_crlb_aperture_monotone():
    p = random_precoder(ArchitectureSpec("full", 8, 2), 2, 2, 1.0, seed=5)
    scene = small_scene(angles=(0.1,), gains=(1.0,))
    c8 = crlb_doa(p, scene, 0.5, n_radar_rx=8)
    c16 = crlb_doa(p, scene, 0.5, n_radar_rx=16)
    assert c16[0] < c8[0]


def test_fisher_matches_finite_differences():
    rng = np.random.default_rng(1)
    d = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
    angles = np.array([0.2, -0.5])
    gains = np.array([1.0 + 0.5j, 0.8])
    sigma2 = 0.25
    fim = fisher_information(d, 4, angles, gains, sigma2)

    def mean_vec(params):
        us, gr, gi = params[:2], params[2:4], params[4:6]
        return sum((gr[q] + 1j * gi[q]) * virtual_mean_vector(d, 4, us[q])
                   for q in range(2))

    p0 = np.array([0.2, -0.5, 1.0, 0.8, 0.5, 0.0])
    eps = 1e-5
    jac = np.zeros((d.shape[1] * 4, 6), dtype=complex)
    for i in range(6):
        pp, pm = p0.copy(), p0.copy()
        pp[i] += eps
        pm[i] -= eps
        jac[:, i] = (mean_vec(pp) - mean_vec(pm)) / (2 * eps)
    fim_fd = (2.0 / sigma2) * np.real(jac.conj().T @ jac)
    assert np.max(np.abs(fim - fim_fd)) / np.max(np.abs(fim)) < 1e-4


def test_crlb_identifiability():
    p = random_precoder(ArchitectureSpec("full", 8, 2), 1, 2, 1.0, seed=5)
    scene = small_scene(angles=tuple(np.linspace(-0.5, 0.5, 4)),
                        gains=(1.0,) * 4)
    with pytest.raises(ValueError):
        crlb_doa(p, scene, 0.5, n_radar_rx=2)   # Q=4 >= K*M_r=2


def test_metric_report_csv(channel_small):
    dims, ch = channel_small
    p = random_precoder(ArchitectureSpec("full", 8, 2), 2, 2, 1.0, seed=4)
    c = design_combiners(ch, p, n_rx_rf=2)
    scene = small_scene()
    report = evaluate_metrics(ch, p, c, scene, n_radar_rx=4)
    header = MetricReport.csv_header()
    row = report.csv_row()
    assert header[:3] == ["se_bits", "mmse", "mi_comm"]
    assert len(row) == len(header)
    assert report["mi_comm"] == pytest.approx(report["se_bits"] * 2)
