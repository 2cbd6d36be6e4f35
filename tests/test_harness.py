import json
import math
from fractions import Fraction as F

import numpy as np
import pytest

from ierk import harness
from ierk.cli import main
from ierk.dissipation import average_rate
from ierk.harness import (
    ConvergenceRow,
    ConvergenceTable,
    energy_deviation,
    run_certify,
    run_converge,
    run_evolve,
    run_rate_table,
    run_scan,
    run_verify,
)
from ierk.tableau import registry, tableau_to_dict

SQRT2 = math.sqrt(2.0)


def test_run_verify_ok_flag():
    rep = run_verify(registry("IERK3-2", {"a43": F(-1, 2)}))
    assert rep["ok"] and rep["attained_order"] == 3
    rep = run_verify(registry("IERK1", {"theta": F(1, 2)}))
    assert rep["ok"] and rep["attained_order"] == 1


def test_run_certify_dict():
    rep = run_certify(registry("IERK2-1", {"c2": 1, "a33": F(1, 2)}))
    assert rep["ok"] and rep["certified"]
    assert rep["rate"]["intercept"] == pytest.approx(1.5)
    rep = run_certify(registry("IERK2-1", {"c2": 1, "a33": F(2, 5)}))
    assert not rep["ok"]


def test_run_scan_reports_rows():
    rep = run_scan("IERK3-2", "a43", -0.7, -0.3, 0.02)
    assert rep["ok"]
    assert len(rep["rows"]) == 21
    (lo, hi), = rep["certified_intervals"]
    assert lo == pytest.approx(-0.62, abs=0.021)
    assert hi == pytest.approx(-0.38, abs=0.021)


def test_rate_table_matches_published_pairs():
    rows = {r["method"]: r for r in run_rate_table()}
    assert rows["IERK2-2"]["intercept"] == pytest.approx(SQRT2, abs=1e-12)
    assert rows["IERK2-2"]["slope"] == pytest.approx(SQRT2 / 4, abs=1e-12)
    assert rows["IERK3-2"]["intercept"] == pytest.approx(1.25)
    assert rows["IERK3-2"]["slope"] == pytest.approx(0.4)
    assert rows["IERK2-Radau"]["intercept"] == pytest.approx(2.0, abs=1e-12)
    # this family's published slope convention is the raw trace: twice the
    # per-stage average returned by average_rate
    assert rows["IERK2-Radau"]["slope"] == pytest.approx(3 + 2 * SQRT2, abs=1e-12)
    i, s = average_rate(registry("IERK2-Radau", {"c2": 1 + SQRT2 / 2}))
    assert rows["IERK2-Radau"]["slope"] == pytest.approx(2 * s, abs=1e-12)
    assert all(r["certified"] for r in rows.values() if r["method"] != "IERK3-4stage")


def test_observed_order_estimator_uses_floor():
    rows = (
        ConvergenceRow(0.1, 1e-2, None),
        ConvergenceRow(0.05, 2.5e-3, 2.0),
        ConvergenceRow(0.025, 6.25e-4, 2.0),
        ConvergenceRow(0.0125, 1.5625e-4, 2.0),
        ConvergenceRow(0.00625, 1e-14, 23.0),  # round-off saturated row
    )
    table = ConvergenceTable("demo", {}, 0.0, rows)
    assert table.observed_order() == pytest.approx(2.0)


def test_observed_order_empty_when_all_saturated():
    rows = (ConvergenceRow(0.1, 1e-14, None), ConvergenceRow(0.05, 1e-14, 0.0))
    assert ConvergenceTable("demo", {}, 0.0, rows).observed_order() is None


def test_run_converge_small_grid():
    cfg = {
        "method": "IERK2-2",
        "params": {"a33": (1 + SQRT2) / 4},
        "kappa": 0.0,
        "tau_grid": [0.1, 0.05, 0.025, 0.0125],
    }
    table = run_converge(cfg)
    assert len(table.rows) == 4
    errs = [r.error for r in table.rows]
    assert all(e1 > e2 for e1, e2 in zip(errs, errs[1:]))
    assert table.rows[-1].observed_order == pytest.approx(2.0, abs=0.3)


def test_run_converge_rejects_bad_grid():
    cfg = {"method": "IERK1", "params": {"theta": 0.5}, "tau_grid": [0.05, 0.1]}
    with pytest.raises(ValueError):
        run_converge(cfg)
    cfg = {"method": "IERK1", "params": {"theta": 0.5}, "tau_grid": [0.3]}
    with pytest.raises(ValueError):
        run_converge(cfg)


def test_run_evolve_summary_and_reference():
    scene = {"tau": 0.1, "kappa": 2.0, "t_final": 2.0, "record_stages": True,
             "reference": {"method": "IERK2-1", "params": {"c2": 1, "a33": 1}, "tau": 0.02}}
    cfg = {"method": "IERK2-2", "params": {"a33": 0.61}, **scene}
    trace, summary, final = run_evolve(cfg)
    assert summary["steps"] == 20
    assert not summary["diverged"]
    assert summary["max_relative_increase"] <= 1e-9
    assert summary["energy_deviation"] >= 0.0
    assert trace.stage_energies is not None


def test_reference_trace_cached():
    cfg = {"tau": 0.1, "kappa": 2.0, "t_final": 1.0}
    ref_cfg = {"method": "IERK1", "params": {"theta": 0.5}, "tau": 0.05}
    a = harness.reference_trace(cfg, ref_cfg)
    b = harness.reference_trace(cfg, ref_cfg)
    assert a is b


def test_energy_deviation_stride_check():
    from ierk.integrator import EnergyTrace

    def mk(tau, n, e0=1.0):
        t = tau * np.arange(1, n + 1)
        e = np.linspace(1.0, 0.5, n)
        return EnergyTrace(e0, t, e, np.diff(np.concatenate(([e0], e))))

    coarse = mk(0.1, 10)
    fine = mk(0.02, 50)
    assert energy_deviation(coarse, fine, 0.1) >= 0.0
    with pytest.raises(ValueError):
        energy_deviation(coarse, mk(0.03, 40), 0.1)


def test_run_converge_zero_steps_sanity_row():
    # t_final = 0 runs no steps: the initial data is exact, so the error is 0
    table = run_converge({"method": "IERK1", "params": {"theta": 0.5},
                          "t_final": 0.0, "tau_grid": [0.1]})
    assert table.rows[0].error == 0.0


def test_run_evolve_zero_steps_empty_trace():
    trace, summary, final = run_evolve({"method": "IERK1", "params": {"theta": 0.5},
                                        "tau": 0.2, "kappa": 2.0, "t_final": 0.05})
    assert summary["steps"] == 0 and len(trace) == 0
    assert final is not None


def test_run_evolve_divergence_flag():
    cfg = {"method": "IERK3-4stage", "params": {"a22": 1}, "tau": 0.01,
           "kappa": 4.0, "t_final": 30.0}
    trace, summary, final = run_evolve(cfg)
    assert summary["diverged"]
    assert final is None
    assert summary["max_increase"] > 1e-6


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_verify_ok(capsys):
    assert main(["verify", "IERK1", "--p", "theta=0.5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["attained_order"] == 1


def test_cli_certify_exit_codes(capsys):
    assert main(["certify", "IERK2-1", "--p", "c2=1", "--p", "a33=0.5"]) == 0
    assert main(["certify", "IERK2-1", "--p", "c2=1", "--p", "a33=0.4"]) == 1


def test_cli_natural_parameter_flags(capsys):
    # per-symbol flags work without pre-declaration
    assert main(["certify", "IERK2-1", "--c2", "1", "--a33", "0.5"]) == 0
    assert main(["certify", "IERK2-1", "--c2", "1", "--a33", "0.4"]) == 1
    assert main(["verify", "IERK3-2", "--a43", "-0.5"]) == 0
    capsys.readouterr()


def test_cli_bad_params_exit_code(capsys):
    assert main(["verify", "IERK2-Radau", "--p", "c2=1"]) == 2
    assert main(["verify", "IERK-nope"]) == 2


def test_cli_scan(tmp_path, capsys):
    rc = main(["scan", "IERK3-1", "--symbol", "a55", "--lo", "0.6", "--hi", "1.0",
               "--step", "0.05", "--out", str(tmp_path)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["certified_intervals"]
    table = (tmp_path / "table.csv").read_text().splitlines()
    assert table[0] == "a55,certified"
    assert len(table) == 1 + 9


def test_cli_rate_table(tmp_path, capsys):
    assert main(["rate-table", "--out", str(tmp_path)]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert len(rows) == 9
    assert (tmp_path / "table.csv").exists()
    assert (tmp_path / "report.json").exists()


def test_cli_converge_with_config_and_overrides(tmp_path, capsys):
    cfg = {
        "experiment": "converge",
        "method": "IERK2-2",
        "params": {"a33": 1.0},
        "kappa": 4.0,
        "tau_grid": [0.1, 0.05, 0.025],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "run"
    rc = main(["converge", "--config", str(cfg_path), "--kappa", "0", "--out", str(out_dir)])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["kappa"] == 0.0  # flag overrode the config value
    assert (out_dir / "table.csv").exists()
    assert (out_dir / "plot.svg").read_text().startswith("<svg")
    assert (out_dir / "report.json").exists()


def test_cli_evolve_outputs(tmp_path, capsys):
    out_dir = tmp_path / "run"
    rc = main(["evolve", "IERK1", "--p", "theta=0.5", "--tau", "0.1", "--kappa", "2",
               "--t-final", "2", "--record-stages", "--out", str(out_dir)])
    assert rc == 0
    trace = (out_dir / "trace.csv").read_text().splitlines()
    assert trace[0] == "t,E,dE"
    assert len(trace) == 21
    stages = (out_dir / "stages.csv").read_text().splitlines()
    assert stages[0] == "n,i,c_i,E_stage"
    assert len(stages) == 1 + 20 * 2
    snap = (out_dir / "snapshot.csv").read_text().splitlines()
    assert snap[0] == "x,u" and len(snap) == 257


def test_cli_evolve_negative_tau_exits_2(capsys):
    rc = main(["evolve", "IERK1", "--p", "theta=0.5", "--tau", "-0.05", "--t-final", "1"])
    assert rc == 2
    assert capsys.readouterr().err == "error: tau must be positive\n"


@pytest.mark.parametrize("step", ["0", "-0.1", "nan", "inf"])
def test_cli_scan_bad_step_exits_2(step, capsys):
    rc = main(["scan", "IERK2-1", "--symbol", "c2", "--lo", "0.2", "--hi", "2",
               "--step", step, "--a33", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: scan step must be finite and positive")
    assert err.count("\n") == 1


def test_cli_converge_divergent_rows_are_null(capsys):
    rc = main(["converge", "IERK3-4stage", "--a22", "2", "--kappa", "4",
               "--tau-grid", "0.1,0.05"])
    assert rc == 1
    rep = json.loads(capsys.readouterr().out)
    assert not rep["ok"]
    assert all(r["error"] is None for r in rep["rows"])


def test_cli_custom_tableau_file(tmp_path, capsys):
    path = tmp_path / "crank.json"
    path.write_text(json.dumps(tableau_to_dict(registry("IERK1", {"theta": F(1, 2)}))))
    assert main(["verify", "--tableau", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["attained_order"] == 1


def test_cli_converge_with_tableau_file(tmp_path, capsys):
    path = tmp_path / "crank.json"
    path.write_text(json.dumps(tableau_to_dict(registry("IERK1", {"theta": F(1, 2)}))))
    rc = main(["converge", "--tableau", str(path), "--kappa", "0",
               "--tau-grid", "0.1,0.05,0.025"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["method"] == "IERK1"


def test_cli_reproducible_outputs(tmp_path):
    args = ["converge", "IERK2-Radau", "--p", "c2=1.5", "--kappa", "0",
            "--tau-grid", "0.1,0.05,0.025"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "table.csv").read_bytes() == (out2 / "table.csv").read_bytes()
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


def test_field_snapshot_round_trip(tmp_path):
    from ierk.harness import read_field_csv, write_field_csv
    from ierk.spectral import Field, SpectralGrid, tanh_gaussian_bumps

    grid = SpectralGrid(-math.pi, math.pi, 64)
    u = Field(values=tanh_gaussian_bumps(grid.x))
    path = tmp_path / "snap.csv"
    write_field_csv(path, grid, u)
    back = read_field_csv(path, grid)
    assert np.abs(back.values - u.values).max() <= 1e-15
    with pytest.raises(ValueError):
        read_field_csv(path, SpectralGrid(-math.pi, math.pi, 128))
