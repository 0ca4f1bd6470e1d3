import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dfrcbeam.cli import main
from dfrcbeam.experiments import (ConfigError, DEFAULTS, ExperimentConfig,
                                  _pareto_seed_task, run_beampattern, run_doa,
                                  run_pareto, run_se_vs_snr)
from dfrcbeam.fileio import read_csv

ROOT = Path(__file__).resolve().parents[1]

TINY = """
dims.n_tx_antennas = 8
dims.n_rx_antennas = 2
dims.n_tx_rf = 2
dims.n_rx_rf = 2
dims.n_streams = 2
dims.n_users = 2
dims.n_subcarriers = 2
dims.n_radar_rx_rf = 4
arch.kind = full
channel.n_clusters = 2
channel.n_rays = 3
scene.target_angles = -0.4
scene.target_gains = 1
scene.mainlobe = -0.5:-0.3
grid.n_points = 61
solver.max_iterations = 40
sweep.weights = 0.2, 0.8
sweep.snrs_db = 0
sweep.architectures = full
seeds = 1
doa.n_trials = 6
doa.n_resolution_trials = 5
"""


def _tiny(tmp_path, extra=""):
    path = tmp_path / "exp.cfg"
    path.write_text(TINY + extra)
    return str(path)


def test_config_defaults_and_overrides(tmp_path):
    config = ExperimentConfig.from_file(_tiny(tmp_path))
    assert config.get_int("dims.n_tx_antennas") == 8
    assert config.get_float("power.total") == 1.0        # default survives
    dims = config.dims()
    assert dims.n_subcarriers == 2
    assert config.get_intervals("scene.mainlobe") == [(-0.5, -0.3)]


def test_config_rejects_unknown_key():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_text("dims.n_antennas = 3")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_text("just a line")


def test_empty_sweep_list_rejected():
    c = ExperimentConfig.from_text("sweep.weights = ")
    with pytest.raises(ConfigError):
        c.get_list("sweep.weights")


def test_config_bad_values():
    c = ExperimentConfig.from_text("dims.n_tx_antennas = eight")
    with pytest.raises(ConfigError):
        c.dims()
    c2 = ExperimentConfig.from_text("scene.mainlobe = 0.1-0.2")
    with pytest.raises(ConfigError):
        c2.get_intervals("scene.mainlobe")
    c3 = ExperimentConfig.from_text("scalarization.kind = minmax2")
    with pytest.raises(ConfigError):
        c3.scalarization()


def test_hash_covers_every_field():
    base = ExperimentConfig.from_text("")
    h0 = base.config_hash()
    for key in DEFAULTS:
        changed = base.with_overrides(**{key: DEFAULTS[key] + "x"})
        assert changed.config_hash() != h0, key


def test_seed_override(tmp_path):
    config = ExperimentConfig.from_file(_tiny(tmp_path))
    assert config.seeds() == [1]
    assert config.with_overrides(seeds="7").seeds() == [7]


def test_run_design_and_rerun_identical(tmp_path):
    cfg_path = _tiny(tmp_path)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["design", "--config", cfg_path, "--out", str(out1)]) == 0
    assert main(["design", "--config", cfg_path, "--out", str(out2)]) == 0
    for name in ["analog.csv", "digital.csv", "traces.csv", "summary.csv",
                 "manifest.txt"]:
        a = (out1 / name).read_bytes()
        b = (out2 / name).read_bytes()
        assert a == b, name


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats is most of the startup time and only
    # metrics.detection_probability needs it, so it loads on first use
    import dfrcbeam
    env = dict(os.environ, PYTHONPATH=str(Path(dfrcbeam.__file__).parents[1]))
    code = "import sys, dfrcbeam.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("dims.n_tx_antennas = -3")
    assert main(["design", "--config", str(bad)]) == 2
    assert main(["design", "--config", str(tmp_path / "missing.cfg")]) == 2


def test_cli_solver_failure_exit_code(tmp_path):
    # two-stage cannot honor epsilon constraints: solver failure, exit 3
    cfg_path = _tiny(tmp_path, extra="design.method = two_stage\n"
                                     "scalarization.kind = epsilon\n"
                                     "scalarization.epsilon = 0.5\n")
    out = tmp_path / "o"
    assert main(["design", "--config", cfg_path, "--out", str(out)]) == 3


def test_cli_infeasible_epsilon_exit_code(tmp_path):
    # bound below the secondary's own minimum: certified infeasible, exit 3
    cfg_path = _tiny(tmp_path, extra="scalarization.kind = epsilon\n"
                                     "scalarization.epsilon = -1.0\n")
    out = tmp_path / "o2"
    assert main(["design", "--config", cfg_path, "--out", str(out)]) == 3


def test_run_pareto_tiny(tmp_path):
    config = ExperimentConfig.from_file(_tiny(tmp_path))
    out = str(tmp_path / "pareto")
    rows = run_pareto(config, out)
    header, table = read_csv(os.path.join(out, "pareto.csv"))
    assert header == ["architecture", "weight", "seed", "mi_radar", "mi_comm",
                      "status"]
    assert len(table) == 2          # two weights, one seed, one architecture
    header_m, med = read_csv(os.path.join(out, "pareto_median.csv"))
    assert len(med) == 2
    assert os.path.exists(os.path.join(out, "manifest.txt"))
    assert os.path.exists(os.path.join(out, "pareto.gp"))


def test_run_pareto_byte_identical_and_jobs(tmp_path):
    config = ExperimentConfig.from_file(_tiny(tmp_path))
    out1, out2, out3 = (str(tmp_path / d) for d in ("p1", "p2", "p3"))
    run_pareto(config, out1)
    run_pareto(config, out2)
    run_pareto(config, out3, jobs=2)
    with open(os.path.join(out1, "pareto.csv"), "rb") as f:
        b1 = f.read()
    with open(os.path.join(out2, "pareto.csv"), "rb") as f:
        b2 = f.read()
    with open(os.path.join(out3, "pareto.csv"), "rb") as f:
        b3 = f.read()
    assert b1 == b2 == b3


def test_run_se_vs_snr_single_cell(tmp_path):
    config = ExperimentConfig.from_file(_tiny(tmp_path))
    out = str(tmp_path / "se")
    rows = run_se_vs_snr(config, out)
    header, table = read_csv(os.path.join(out, "se_vs_snr.csv"))
    assert header[:5] == ["snr_db", "seed", "se_fd", "se_admm", "se_twostage"]
    assert len(table) == 1
    assert table[0][5] == "ok"


def test_run_beampattern_summary(tmp_path):
    config = ExperimentConfig.from_file(_tiny(tmp_path))
    out = str(tmp_path / "bp")
    summary = run_beampattern(config, out)
    header, rows = read_csv(os.path.join(out, "beampattern_summary.csv"))
    by_method = {r[0]: r for r in rows}
    assert set(by_method) == {"fully_digital", "two_stage", "admm"}
    for r in rows:
        # grid-mean power equals the budget (conservation hook)
        assert float(r[3]) == pytest.approx(float(r[4]), rel=1e-3)
    header_f, full = read_csv(os.path.join(out, "beampattern_admm.csv"))
    assert header_f == ["u", "k", "power_db", "total_power_db"]
    assert len(full) == 61 * 2


def test_run_doa_csv(tmp_path):
    config = ExperimentConfig.from_file(_tiny(tmp_path, extra="sweep.k_values = 1, 2\ndoa.n_tx = 8\n"))
    out = str(tmp_path / "doa")
    run_doa(config, out)
    header, rows = read_csv(os.path.join(out, "doa.csv"))
    assert header == ["k", "snr_db", "delta_u_threshold", "rmse", "crlb"]
    assert len(rows) == 2


def test_pareto_endpoint_weights(tmp_path):
    # weight list {0, 1} only: two endpoint rows, each the corresponding
    # single-objective solution (best comm MI at w=0, best radar MI at w=1)
    config = ExperimentConfig.from_file(_tiny(tmp_path))
    config = config.with_overrides(**{"sweep.weights": "0, 1",
                                      "objective.radar_metric": "neg_radar_mi",
                                      "objective.comm_metric": "neg_se"})
    out = str(tmp_path / "endpoints")
    run_pareto(config, out)
    _, table = read_csv(os.path.join(out, "pareto.csv"))
    assert len(table) == 2
    by_w = {float(r[1]): (float(r[3]), float(r[4])) for r in table}
    assert by_w[1.0][0] >= by_w[0.0][0]    # radar MI peaks at w=1
    assert by_w[0.0][1] >= by_w[1.0][1]    # comm MI peaks at w=0


def test_beampattern_design_claims(tmp_path):
    # defaults, 5 seeds: the fully digital design concentrates >= 70% of the
    # radiated power inside the main lobe, and the two-stage pattern matches
    # the desired spectrum no better than ADMM (median SSME)
    gaps = []
    for seed in (1, 2, 3, 4, 5):
        config = ExperimentConfig.from_text(f"""
scene.target_angles = -0.55, 0.38
scene.mainlobe = -0.7891:-0.337, 0.0939:0.657
scalarization.w_radar = 0.5
seeds = {seed}
""")
        out = str(tmp_path / f"bp{seed}")
        summary = {row[0]: row for row in run_beampattern(config, out)}
        assert summary["fully_digital"][2] >= 0.70
        gaps.append(summary["two_stage"][1] - summary["admm"][1])
    assert np.median(gaps) >= 0


def test_beampattern_golden(tmp_path):
    # demos/demo_beampattern.py's config; its committed outputs must come
    # back byte for byte (covers the SSME + MMSE quadratic ADMM branch)
    golden = ROOT / "demo_out" / "beampattern"
    config = ExperimentConfig.from_text(
        "scene.target_angles = -0.55, 0.38\n"
        "scene.mainlobe = -0.7891:-0.337, 0.0939:0.657\n"
        "seeds = 1\n")
    run_beampattern(config, str(tmp_path))
    names = sorted(os.listdir(golden))
    assert sorted(os.listdir(tmp_path)) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == (golden / name).read_bytes(), name


def test_pareto_divergence_guard_status():
    # configs/pareto.cfg, partial connection, seed 2: the guard stops the
    # w 0.2 solve at iteration 92 of 150, which must not read max_iter
    config = ExperimentConfig.from_file(ROOT / "configs" / "pareto.cfg")
    config = config.with_overrides(**{"sweep.architectures": "partial",
                                      "sweep.weights": "0, 0.1, 0.2"})
    rows = _pareto_seed_task(config.values, 2)
    assert [r[-1] for r in rows] == ["max_iter", "max_iter", "diverged"]


def test_manifest_has_hash(tmp_path):
    config = ExperimentConfig.from_file(_tiny(tmp_path))
    out = str(tmp_path / "m")
    run_pareto(config, out)
    text = open(os.path.join(out, "manifest.txt")).read()
    assert f"config_hash = {config.config_hash()}" in text
    assert "seeds = 1" in text
