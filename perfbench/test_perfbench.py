"""Fast tests of the benchmark's own checks: each must reject a corrupted
output. Run with ``python -m pytest perfbench`` from the repository root."""

import csv
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import checks  # noqa: E402
import harness  # noqa: E402
from dfrcbeam import cli, experiments, solvers  # noqa: E402
from dfrcbeam.architecture import AnalogPrecoder, ArchitectureSpec  # noqa: E402
from dfrcbeam.metrics import HybridPrecoder  # noqa: E402

SNRS = (-10.0, -5.0, 0.0, 5.0, 10.0)


def write(path, header, rows):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def se_capacity(snr, seed):
    config = experiments.ExperimentConfig.from_text(
        harness.WORKLOADS["se_vs_snr"].config_text())
    return harness.se_capacity(config, snr, seed)


def write_se_cell(out, snr, seed, corrupt=None):
    """One cell's output files at half the capacity, or corrupted."""
    se = [0.5 * se_capacity(snr, seed)] * 3
    status = "ok"
    if corrupt == "above_capacity" and snr == 0:
        se[1] = 1.01 * se_capacity(snr, seed)
    if corrupt == "failed" and snr == -5:
        status = "failed:LinAlgError"
    if corrupt == "falling" and snr == 10:
        se = [0.1] * 3
    os.makedirs(out, exist_ok=True)
    header = ["snr_db", "seed", "se_fd", "se_admm", "se_twostage"]
    write(os.path.join(out, "se_vs_snr.csv"), header + ["status"],
          [[snr, seed] + se + [status]])
    write(os.path.join(out, "se_vs_snr_median.csv"),
          [header[0]] + header[2:], [[snr] + se])


@pytest.mark.parametrize("corrupt", [None, "above_capacity", "failed", "falling"])
def test_se_check(tmp_path, corrupt):
    dirs = [tmp_path / str(i) for i in range(len(SNRS))]
    for i, (d, snr) in enumerate(zip(dirs, SNRS)):
        write_se_cell(d, snr, 300 + i, corrupt)
    errors = checks.check_se_vs_snr(dirs, se_capacity)
    assert bool(errors) == (corrupt is not None), errors


def test_waterfill_equal_gains():
    # two equal modes split the power evenly: 2 log2(1 + P g / 2)
    assert checks.waterfill_capacity(np.array([4.0, 4.0]), 1.0, 1.0) == \
        pytest.approx(2 * np.log2(1 + 2.0))
    # a weak mode below the water level gets no power
    assert checks.waterfill_capacity(np.array([100.0, 1e-6]), 1.0, 1.0) == \
        pytest.approx(np.log2(101.0))


def test_radar_bound_of_pareto_scene():
    assert checks.radar_mi_bound([-0.55, 0.38], [1, 1], 32, 8, 1.0, 0.1) == \
        pytest.approx(70.27568, abs=1e-5)


def write_pareto(out, rows):
    write(os.path.join(out, "pareto.csv"),
          ["architecture", "weight", "seed", "mi_radar", "mi_comm", "status"],
          rows)


@pytest.mark.parametrize("corrupt", [None, "failed", "radar_high", "comm_high"])
def test_pareto_check(tmp_path, corrupt):
    radar, comm = 70.0, 90.0
    rows = [["full", 0, 1, 2.0, 80.0, "max_iter"],
            ["full", 1, 1, radar, 18.0, "converged"],
            ["partial", 1, 1, 56.0, 20.0, "converged"]]
    if corrupt == "failed":
        rows[0][3:] = ["nan", "nan", "failed:SolverError"]
    if corrupt == "radar_high":
        rows[2][3] = 70.1
    if corrupt == "comm_high":
        rows[0][4] = 90.1
    write_pareto(tmp_path, rows)
    errors = checks.check_pareto(tmp_path, radar, comm)
    assert bool(errors) == (corrupt is not None), errors


@pytest.mark.parametrize("corrupt", [None, "rising", "crlb", "range", "rmse"])
def test_doa_check(tmp_path, corrupt):
    rows = [[1, 25, 0.04, 3.0e-4, 2.7e-4], [2, 25, 0.014, 9e-5, 1.2e-4],
            [4, 25, 0.014, 7.6e-5, 7.9e-5], [8, 25, 0.014, 4e-5, 4.2e-5]]
    if corrupt == "rising":
        rows[3][2] = 0.02
    if corrupt == "crlb":
        rows[2][4] = "inf"
    if corrupt == "range":
        rows[0][2] = "inf"
    if corrupt == "rmse":
        rows[1][3] = 9e-4
    write(os.path.join(tmp_path, "doa.csv"),
          ["k", "snr_db", "delta_u_threshold", "rmse", "crlb"], rows)
    errors = checks.check_doa(tmp_path)
    assert bool(errors) == (corrupt is not None), errors


def partial_analog():
    f = np.zeros((8, 2), dtype=complex)
    f[:4, 0] = np.exp(1j * np.arange(4))
    f[4:, 1] = 1.0
    return f


def test_analog_violations():
    assert checks.analog_violations(partial_analog(), "partial", 2, 0) == []
    off = partial_analog()
    off[5, 0] = 1.0
    assert checks.analog_violations(off, "partial", 2, 0)
    assert checks.analog_violations(partial_analog(), "full", 2, 0)
    assert checks.analog_violations(0.5 * np.ones((8, 2)), "full", 2, 0)
    assert checks.analog_violations(partial_analog(), "dynamic", 2, 8) == []
    assert checks.analog_violations(partial_analog(), "dynamic", 2, 6)


def test_front_area():
    # staircase under (3, 1), (2, 2), (1, 3); a dominated point adds nothing
    pts = [(1, 3), (3, 1), (2, 2), (1.5, 1.5)]
    assert checks.front_area(pts) == pytest.approx(3 + 2 + 1)


def fake_se_sweep(monkeypatch, corrupt):
    """Stand-ins for the CLI and the cell task that write checkable output."""
    def cell(values, cell):
        snr, seed = cell
        return (snr, seed, 1.0, 1.0, 1.0, "ok")

    def main(argv):
        config = experiments.ExperimentConfig.from_file(
            argv[argv.index("--config") + 1])
        snr = config.get_list("sweep.snrs_db")[0]
        seed = int(argv[argv.index("--seed") + 1])
        experiments._se_snr_cell_task(None, (snr, seed))
        if corrupt == "missing":
            return 3
        write_se_cell(argv[argv.index("--out") + 1], snr, seed, corrupt)
        return 3 if corrupt == "exit" else 0

    monkeypatch.setattr(experiments, "_se_snr_cell_task", cell)
    monkeypatch.setattr(cli, "main", main)


@pytest.mark.parametrize("corrupt", [None, "above_capacity", "failed", "exit",
                                     "missing"])
def test_command_exit_code(monkeypatch, capsys, corrupt):
    import run
    fake_se_sweep(monkeypatch, corrupt)
    code = run.main(["--workload", "se_vs_snr", "--seed", "2",
                     "--seconds", "0.01", "--trace", "0"])
    out = capsys.readouterr().out.strip().splitlines()[-1]
    assert code == (0 if corrupt is None else 1)
    assert ('"correct": true' in out) == (corrupt is None)
    work = os.path.join(HERE, ".work", f"se_vs_snr-{os.getpid()}")
    assert not os.path.exists(work)


def test_traced_run_flags_off_support_analog(monkeypatch, tmp_path):
    spec = ArchitectureSpec(kind="partial", n_tx_antennas=32, n_tx_rf=4)
    f = np.zeros((32, 4), dtype=complex)
    for i in range(4):
        f[8 * i:8 * (i + 1), i] = 1.0
    f[0, 3] = 1.0       # one shifter outside chain 3's block

    def two_stage(*args, **kwargs):
        p = HybridPrecoder.from_parts(AnalogPrecoder(f, spec),
                                      np.ones((8, 4, 4)), 1.0, normalize=True)
        return p, np.array([1.0, 0.5])

    fake_se_sweep(monkeypatch, None)
    fake_main = cli.main

    def main(argv):
        solvers.factorize_two_stage(None)
        return fake_main(argv)

    monkeypatch.setattr(cli, "main", main)
    monkeypatch.setattr(solvers, "factorize_two_stage", two_stage)
    result, errors = harness.run("se_vs_snr", 1, 0.01, True, tmp_path,
                                 lambda: 1.0, 1)
    assert not result["correct"]
    assert any("partial: support differs" in e for e in errors), errors
    assert result["metrics"]["solvers.two_stage.iterations"]["value"] == 5
    assert result["metrics"]["cli.main.calls"]["value"] == 5
