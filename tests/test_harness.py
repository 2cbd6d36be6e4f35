import json
import math
from fractions import Fraction as F

import numpy as np
import pytest

from ierk import harness
from ierk.cli import main
from ierk.dissipation import average_rate
from ierk.errors import DegenerateParameters, UnknownMethod
from ierk.harness import (
    ConvergenceRow,
    ConvergenceTable,
    Experiment,
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


def test_reference_trace_cached(monkeypatch):
    monkeypatch.setattr(harness, "_REFERENCE_CACHE", {})
    cfg = {"method": "IERK2-2", "params": {"a33": 1}, "tau": 0.1, "kappa": 2.0, "t_final": 1.0,
           "m": 32, "reference": {"method": "IERK1", "params": {"theta": 0.5}, "tau": 0.05}}

    def trace(**changes):
        return harness.reference_trace(Experiment.parse({**cfg, **changes}, "evolve").reference_run())

    a = trace()
    # the main run's own method and step do not enter the reference run
    assert trace() is a and trace(method="IERK1", params={"theta": 1}, tau=0.05) is a
    # a reference run that differs in m or kappa gets its own entry, and so does
    # the same theta written as "1/2"
    others = [trace(m=64), trace(kappa=1.0),
              trace(reference={**cfg["reference"], "params": {"theta": "1/2"}})]
    assert all(b is not a for b in others)
    assert len(harness._REFERENCE_CACHE) == 4


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


def test_run_converge_zero_t_final_is_refused():
    # t_final = 0 would run no steps and report a zero error at every tau
    with pytest.raises(ValueError, match="t_final must be > 0 for a convergence study, got 0.0"):
        run_converge({"method": "IERK1", "params": {"theta": 0.5},
                      "t_final": 0.0, "tau_grid": [0.1]})


def test_run_converge_divergent_rows_leave_the_others_intact():
    # a55 = 0.3 is outside IERK3-1's certified window: with kappa = 4 the two
    # smallest steps blow up inside the same batch as the three larger ones
    cfg = {"method": "IERK3-1", "params": {"a55": 0.3}, "kappa": 4.0, "epsilon": 0.2,
           "tau_grid": [0.5, 0.25, 0.1, 0.05, 0.025]}
    errs = [r.error for r in run_converge(cfg).rows]
    assert errs[3:] == [math.inf, math.inf]
    # errors of these runs stepped one at a time; the near-unstable flow turns
    # last-bit differences in the forcing into relative changes near 1e-9
    assert errs[:3] == pytest.approx([0.23035567483769515, 0.18349252702912566,
                                      0.059467350503857846], rel=1e-6)
    for tau, err in zip(cfg["tau_grid"], errs):
        assert run_converge({**cfg, "tau_grid": [tau]}).rows[0].error == pytest.approx(err, rel=1e-6)


def test_run_evolve_zero_steps_empty_trace():
    trace, summary, final = run_evolve({"method": "IERK1", "params": {"theta": 0.5},
                                        "tau": 0.2, "kappa": 2.0, "t_final": 0.05})
    assert summary["steps"] == 0 and len(trace) == 0
    assert final is not None


def test_run_evolve_reports_time_reached():
    # 1 / 0.07 rounds to 14 steps: the run ends at t = 0.98, and says so
    _, summary, _ = run_evolve({"method": "IERK1", "params": {"theta": 0.5},
                                "tau": 0.07, "kappa": 2.0, "t_final": 1.0})
    assert summary["steps"] == 14
    assert summary["t_end"] == pytest.approx(0.98, rel=1e-12)
    _, summary, _ = run_evolve({"method": "IERK1", "params": {"theta": 0.5},
                                "tau": 0.2, "kappa": 2.0, "t_final": 0.05})
    assert summary["t_end"] == 0.0


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = {"method": "IERK1", "params": {"theta": 0.5}, "tau": 0.1, "t_final": 1.0, "kapa": 3}
    with pytest.raises(ValueError, match="unknown config key 'kapa'"):
        run_evolve(cfg)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "run"
    assert main(["evolve", "--config", str(path), "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err == "error: unknown config key 'kapa'\n"
    assert not (out_dir / "report.json").exists()


_EVOLVE_CFG = {"method": "IERK1", "params": {"theta": 0.5}, "tau": 0.1, "t_final": 0.5, "m": 32}


@pytest.mark.parametrize("extra, flags, message", [
    ({"domain": 5}, [], "config key 'domain' must be a pair of numbers, got 5"),
    ({"domain": [[0], 1]}, [], "config key 'domain' must be a pair of numbers"),
    ({"params": [1]}, ["--p", "theta=1/2"], "config key 'params' must be an object"),
    ({"params": {"theta": [1]}}, [], "config key 'params' must be an object"),
    ({"m": "32"}, [], "config key 'm' must be an integer"),
    ({"initial": ["sine"]}, [], "config key 'initial' must be a string"),
    ({"record_stages": 1}, [], "config key 'record_stages' must be true or false"),
    ({"reference": [1]}, [], "config key 'reference' must be an object, got [1]"),
    ({"reference": {"method": "IERK1", "params": {"theta": 0.5}, "tua": 0.05}}, [],
     "unknown reference config key 'tua'"),
    ({"reference": {"method": "IERK1", "tau": "0.05"}}, [],
     "reference config key 'tau' must be a number"),
    ({"reference": {"params": {"theta": 0.5}}}, [], "reference config needs a 'method'"),
    # a flag merged into a config whose params or method is of the wrong type
    ({"params": [1]}, ["--theta", "1/2"], "config key 'params' must be an object"),
    ({"method": ["x"]}, ["--theta", "1/2"], "config key 'method' must be a string, got ['x']"),
])
def test_cli_config_value_of_wrong_type_exits_2(extra, flags, message, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**_EVOLVE_CFG, **extra}))
    out_dir = tmp_path / "run"
    assert main(["evolve", "--config", str(path), *flags, "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1
    assert not (out_dir / "report.json").exists()


_CONVERGE_CFG = {"method": "IERK1", "params": {"theta": 0.5}, "m": 32, "tau_grid": [0.1]}


@pytest.mark.parametrize("command, cfg, flags, message", [
    ("evolve", _EVOLVE_CFG, ["--tau", "0"], "tau must be positive"),
    ("evolve", {**_EVOLVE_CFG, "tau": math.inf}, [], "tau must be finite, got inf"),
    ("evolve", {**_EVOLVE_CFG, "t_final": -1}, [], "t_final must be finite and >= 0, got -1"),
    ("evolve", {**_EVOLVE_CFG, "t_final": math.nan}, [], "t_final must be finite and >= 0"),
    ("evolve", {**_EVOLVE_CFG, "t_final": 1e9}, [], "t_final / tau = 1e+10 steps; at most"),
    ("evolve", {**_EVOLVE_CFG, "t_final": 1e300}, [], "t_final / tau = 1e+301 steps; at most"),
    ("evolve", {**_EVOLVE_CFG, "reference": {"method": "IERK1", "params": {"theta": 0.5},
                                             "tau": 0}}, [], "reference tau must be positive"),
    ("converge", _CONVERGE_CFG, ["--tau-grid", "0.1,0"], "tau_grid entry must be positive"),
    ("converge", {**_CONVERGE_CFG, "tau_grid": []}, [], "tau_grid must hold at least one"),
    ("evolve", {k: v for k, v in _EVOLVE_CFG.items() if k != "tau"}, [],
     "config key 'tau' is missing"),
    ("converge", {k: v for k, v in _CONVERGE_CFG.items() if k != "tau_grid"}, [],
     "config key 'tau_grid' is missing"),
    # keys a command would ignore or overwrite
    ("converge", _CONVERGE_CFG, ["--initial", "tanh-bumps"],
     "converge has no option --initial; IERK1 takes the parameters: theta"),
    ("converge", {**_CONVERGE_CFG, "initial": "tanh-bumps"}, [],
     "converge forces config key 'initial' to 'sine', got 'tanh-bumps'"),
    ("converge", {**_CONVERGE_CFG, "source": "none"}, [],
     "converge forces config key 'source' to 'manufactured', got 'none'"),
    ("converge", {**_CONVERGE_CFG, "tau": 0.1}, [], "converge does not use config key 'tau'"),
    ("converge", {**_CONVERGE_CFG, "record_stages": True}, [],
     "converge does not use config key 'record_stages'"),
    ("converge", {**_CONVERGE_CFG, "reference": {"method": "IERK1", "params": {"theta": 0.5}}},
     [], "converge does not use config key 'reference'"),
    ("evolve", {**_EVOLVE_CFG, "tau_grid": [0.1]}, [], "evolve does not use config key 'tau_grid'"),
    # a grid too large to allocate, refused before any allocation
    ("evolve", {**_EVOLVE_CFG, "m": 2**40}, [], f"m must be at most 1048576, got {2**40}"),
    ("evolve", {**_EVOLVE_CFG, "m": 2**80}, [], f"m must be at most 1048576, got {2**80}"),
    # a grid whose spacing or operator symbols no float can hold
    ("converge", {**_CONVERGE_CFG, "domain": [0, 5e-324]}, [],
     "32 nodes over [0.0, 5e-324) are 0.0 apart"),
    ("evolve", {**_EVOLVE_CFG, "domain": [-1e308, 1e308]}, [],
     "32 nodes over [-1e+308, 1e+308) are inf apart"),
    ("converge", {**_CONVERGE_CFG, "domain": [0, 1e-309], "m": 2}, [],
     "M L_kappa overflows a float on SpectralGrid(x_lo=0.0, x_hi=1e-309, m=2)"),
    ("evolve", {**_EVOLVE_CFG, "domain": [0, 1e-200]}, [], "M L_kappa overflows a float"),
    ("evolve", {**_EVOLVE_CFG, "epsilon": 1e153}, [], "M L_kappa overflows a float"),
    ("evolve", {**_EVOLVE_CFG, "kappa": 1e308}, [], "M L_kappa overflows a float"),
    # a convergence study that takes no step
    ("converge", {**_CONVERGE_CFG, "tau_grid": [0.1, 0.05]}, ["--t-final", "0"],
     "t_final must be > 0 for a convergence study, got 0.0"),
])
def test_cli_bad_step_count_exits_2(command, cfg, flags, message, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "run"
    assert main([command, "--config", str(path), *flags, "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1
    assert not (out_dir / "report.json").exists()


def test_run_converge_accepts_the_forced_values():
    cfg = {**_CONVERGE_CFG, "source": "manufactured", "initial": "sine"}
    assert run_converge(cfg).rows == run_converge(_CONVERGE_CFG).rows


@pytest.mark.parametrize("ref, error, message", [
    pytest.param({"tau": 0.03}, ValueError, "reference tau 0.03 does not divide tau 0.05",
                 id="0.03-reference tau 0.03 does not divide tau 0.05"),
    pytest.param({"tau": 0}, ValueError, "reference tau must be positive",
                 id="0-reference tau must be positive"),
    pytest.param({"method": "BOGUS"}, UnknownMethod, "BOGUS", id="unknown-method"),
    pytest.param({"method": "IERK2-1", "params": {"nope": 1}}, DegenerateParameters, "nope",
                 id="bad-params"),
])
def test_run_evolve_checks_reference_before_main_run(ref, error, message, monkeypatch):
    calls, evolve = [], harness.evolve

    def counting_evolve(*args, **kwargs):
        calls.append(args)
        return evolve(*args, **kwargs)

    monkeypatch.setattr(harness, "evolve", counting_evolve)
    monkeypatch.setattr(harness, "_REFERENCE_CACHE", {})
    good = {"method": "IERK1", "params": {"theta": 0.5}, "tau": 0.025}
    cfg = {"method": "IERK1", "params": {"theta": 0.5}, "m": 32, "kappa": 2.0, "tau": 0.05,
           "t_final": 1.0, "reference": {**good, **ref}}
    with pytest.raises(error, match=message):
        run_evolve(cfg)
    assert calls == []
    # a reference that can serve runs both
    run_evolve({**cfg, "reference": good})
    assert len(calls) == 2


def test_config_params_null_means_none(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**_EVOLVE_CFG, "params": None}))
    assert main(["evolve", "--config", str(path), "--p", "theta=1/2"]) == 0
    assert json.loads(capsys.readouterr().out)["params"] == {"theta": "1/2"}


@pytest.mark.parametrize("argv", [
    ["evolve", "IERK1", "--theta", "1/2"],
    ["evolve", "IERK1", "--theta=1/2"],
    ["evolve", "--config", "{cfg}", "--theta", "1/2"],
    ["evolve", "--theta", "1/2", "--config", "{cfg}"],
])
def test_cli_parameter_flag_forms_agree(argv, tmp_path, capsys):
    cfg = {k: v for k, v in _EVOLVE_CFG.items() if k != "params"}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    scene = ["--tau", "0.1", "--t-final", "0.5", "--m", "32"]
    assert main(["evolve", "IERK1", "--p", "theta=1/2", *scene]) == 0
    expected = capsys.readouterr().out
    argv = [str(path) if a == "{cfg}" else a for a in argv]
    assert main(argv + ([] if "--config" in argv else scene)) == 0
    assert capsys.readouterr().out == expected


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


@pytest.mark.parametrize("args, message", [
    (["IERK3-1", "--symbol", "bogus", "--lo", "0.5", "--hi", "1"], "IERK3-1 takes exactly"),
    (["IERK2-1", "--symbol", "c2", "--lo", "0.5", "--hi", "1"], "IERK2-1 takes exactly"),
    (["IERK3-1", "--symbol", "a55", "--lo", "2", "--hi", "0.5"], "scan bounds must be finite"),
    (["IERK3-1", "--symbol", "a55", "--lo", "nan", "--hi", "1"], "scan bounds must be finite"),
    (["IERK3-1", "--symbol", "a55", "--lo", "0.5", "--hi", "inf"], "scan bounds must be finite"),
    (["IERK2-1", "--symbol", "a33", "--lo", "0", "--hi", "1", "--c2", "0"],
     "every point of the IERK2-1 scan over a33 is degenerate"),
    (["IERK3-1", "--symbol", "a55", "--lo", "0.5", "--hi", "1", "--a55", "3"],
     "IERK3-1: a55 is scanned, so it cannot be fixed too"),
])
def test_cli_scan_bad_symbol_or_bounds_exits_2(args, message, tmp_path, capsys):
    out_dir = tmp_path / "run"
    rc = main(["scan", *args, "--step", "0.1", "--out", str(out_dir)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1
    assert not (out_dir / "report.json").exists()
    assert not (out_dir / "table.csv").exists()


@pytest.mark.parametrize("flag", ["--epsilon=nan", "--epsilon=inf", "--kappa=-inf"])
def test_cli_evolve_non_finite_parameters_exit_2(flag, tmp_path, capsys):
    out_dir = tmp_path / "run"
    rc = main(["evolve", "IERK1", "--theta", "1/2", "--tau", "0.05", flag,
               "--out", str(out_dir)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: epsilon and kappa must be finite")
    assert err.count("\n") == 1
    assert not (out_dir / "report.json").exists()


@pytest.mark.parametrize("args, message", [
    (["evolve", "IERK1", "--theta", "1/2", "--tau", "0.05", "--kappa", "-inf"],
     "argument --kappa: expected one argument"),
    (["scan", "IERK2-1", "--symbol", "a33", "--lo", "-inf", "--hi", "1", "--c2", "1"],
     "argument --lo: expected one argument"),
    (["scan", "IERK2-1", "--lo", "0"], "the following arguments are required"),
    (["certify", "IERK1", "--theta", "1", "stray"], "unrecognized arguments: stray"),
    (["rate-table", "--config", "/nonexistent/missing.json"], "rate-table has no option --config"),
])
def test_cli_parser_errors_are_one_line(args, message, capsys):
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1


@pytest.mark.parametrize("spaced, joined", [
    (["--lo", "-1e-1", "--hi", "-5e-2", "--step", "1E-2"],
     ["--lo=-1e-1", "--hi=-5e-2", "--step=1E-2"]),
    (["--lo", "-1E-1", "--hi", "-.05", "--step", "0.01"],
     ["--lo=-0.1", "--hi=-0.05", "--step=0.01"]),
])
def test_cli_negative_values_in_exponent_notation_parse(spaced, joined, tmp_path, capsys):
    outputs = []
    for flags in (spaced, joined):
        rc = main(["scan", "IERK3-2", "--symbol", "a43", *flags])
        outputs.append((rc, capsys.readouterr()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 1 and outputs[0][1].err == ""
    assert json.loads(outputs[0][1].out)["n_values"] == 6


@pytest.mark.parametrize("args, message", [
    (["evolve", "IERK1", "--theta", "1/2", "--tau", "-1e-3", "--t-final", "1"],
     "tau must be positive"),
    (["evolve", "IERK1", "--theta", "1/2", "--tau", "0.05", "--kappa", "-2E0"],
     "kappa must be nonnegative"),
    (["evolve", "IERK1", "--theta", "1/2", "--tau", "0.05", "--epsilon", "-1E-1",
      "--t-final", "0.1"], None),
    (["converge", "IERK1", "--theta", "1/2", "--tau-grid", "-5e-2,-1e-1"],
     "tau_grid entry must be positive"),
    (["scan", "IERK3-2", "--symbol", "a43", "--lo", "--hi", "1"],
     "argument --lo: expected one argument"),
    (["scan", "IERK3-2", "--symbol", "a43", "--lo", "-1e-1", "--hi"],
     "argument --hi: expected one argument"),
])
def test_cli_negative_value_reaches_its_flag(args, message, capsys):
    rc = main(args)
    err = capsys.readouterr().err
    if message is None:
        assert rc == 0 and err == ""
    else:
        assert rc == 2 and err == f"error: {message}\n"


@pytest.mark.parametrize("args, message", [
    (["converge", "IERK1", "--theta", "1", "--tau-grid", "0.1,0.05", "--initial", "tanh-bumps"],
     "converge has no option --initial; IERK1 takes the parameters: theta"),
    (["certify", "IERK2-1", "--c2", "1", "--a33", "1", "--a44", "1"],
     "certify has no option --a44; IERK2-1 takes the parameters: c2, a33"),
    (["verify", "IERK4-A1", "--theta", "1"],
     "verify has no option --theta; IERK4-A1 takes no parameters"),
    (["verify", "IERK1", "--theta", "x"], "cannot parse coefficient 'x'"),
    (["verify", "IERK4-A1", "--theta", "x"],
     "verify has no option --theta; IERK4-A1 takes no parameters"),
    # the flag is checked before the tableau file is read, or the config parsed
    (["certify", "--tableau", "crank.json", "--theta", "1/2"],
     "certify has no option --theta; a --tableau method takes no parameters"),
    (["evolve", "--tableau", "crank.json", "--theta", "1/2", "--tau", "0.1"],
     "evolve has no option --theta; a --tableau method takes no parameters"),
])
def test_cli_unknown_flag_names_the_flag(args, message, capsys):
    assert main(args) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_converge_divergent_rows_are_null(capsys):
    rc = main(["converge", "IERK3-4stage", "--a22", "2", "--kappa", "4",
               "--tau-grid", "0.1,0.05"])
    assert rc == 1
    rep = json.loads(capsys.readouterr().out)
    assert not rep["ok"]
    assert all(r["error"] is None for r in rep["rows"])


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


def _cli_strict_report(argv, tmp_path, capsys):
    """(exit code, report.json parsed as strict JSON, stderr); stdout must match the file."""
    out_dir = tmp_path / "run"
    code = main([*argv, "--out", str(out_dir)])
    captured = capsys.readouterr()
    report = _strict_json((out_dir / "report.json").read_text())
    assert _strict_json(captured.out) == report
    return code, report, captured.err


def test_cli_evolve_without_steps_writes_strict_json(tmp_path, capsys):
    # tau > t_final: no step, so no stage rise to report
    code, report, _ = _cli_strict_report(
        ["evolve", "IERK1", "--theta", "1", "--tau", "0.2", "--t-final", "0.05"], tmp_path, capsys)
    assert code == 0 and report["steps"] == 0
    assert report["max_increase"] is None and report["max_relative_increase"] is None


def test_cli_evolve_blow_up_writes_strict_json(tmp_path, capsys):
    code, report, _ = _cli_strict_report(
        ["evolve", "IERK3-4stage", "--a22", "1", "--tau", "0.5", "--kappa", "0",
         "--t-final", "50"], tmp_path, capsys)
    assert code == 1 and report["diverged"]
    assert report["final_energy"] is None


def _svg_points(path):
    """Every polyline coordinate of an SVG file, which must parse as XML."""
    import xml.etree.ElementTree as ET

    lines = ET.parse(path).getroot().iter("{http://www.w3.org/2000/svg}polyline")
    return [float(v) for line in lines for p in line.get("points").split() for v in p.split(",")]


def test_cli_evolve_diverged_run_plots_finite_points(tmp_path, capsys):
    # the energy turns nan at step 3: the plot keeps the two finite steps
    code, report, err = _cli_strict_report(
        ["evolve", "IERK3-4stage", "--a22", "2", "--tau", "1", "--kappa", "0",
         "--t-final", "20", "--m", "64"], tmp_path, capsys)
    assert code == 1 and report["diverged"] and err == ""
    points = _svg_points(tmp_path / "run" / "plot.svg")
    assert len(points) == 4 and all(map(math.isfinite, points))


@pytest.mark.parametrize("argv", [
    ["evolve", "IERK3-1", "--a55", "1e300", "--kappa", "1e305", "--tau", "0.5", "--t-final", "1"],
    ["converge", "IERK3-1", "--a55", "1e300", "--kappa", "1e305", "--tau-grid", "0.5"],
])
def test_cli_overflowing_stage_coefficients_diverge(argv, tmp_path, capsys):
    # tau * a_ii * (M L_kappa symbol) overflows: the run diverges, with no warning
    code, report, err = _cli_strict_report([*argv, "--m", "64"], tmp_path, capsys)
    assert code == 1 and err == ""
    assert report["diverged"] if argv[0] == "evolve" else report["rows"][0]["error"] is None


def test_cli_certify_overflowing_minor_writes_strict_json(tmp_path, capsys):
    code, report, err = _cli_strict_report(["certify", "IERK3-1", "--a55", "1e300"],
                                           tmp_path, capsys)
    assert code == 1 and err == ""
    witness = report["witnesses"][0]
    assert witness["determinant"] is None and witness["exact"].startswith("-")


@pytest.mark.parametrize("tol", ["0.5", "0.1"])
def test_cli_certify_rational_verdict_ignores_tol(tol, tmp_path, capsys):
    code, report, err = _cli_strict_report(["certify", "IERK3-4stage", "--a22", "2", "--tol", tol],
                                           tmp_path, capsys)
    assert code == 1 and err == ""
    assert not report["certified"] and report["refuted"]
    assert report["witnesses"] == [
        {"matrix": "D_EI", "order": 2, "exact": "-1/16", "determinant": -0.0625}]


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


def test_field_snapshot_bytes_match_write_csv(tmp_path):
    from ierk.harness import write_csv, write_field_csv
    from ierk.spectral import SpectralGrid, initial_field

    grid = SpectralGrid(-math.pi, math.pi, 4096)
    u = initial_field(grid, "tanh-bumps")
    write_field_csv(tmp_path / "fast.csv", grid, u)
    write_csv(tmp_path / "rows.csv", ("x", "u"), zip(grid.x, u.values))
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_field_snapshot_round_trip(tmp_path):
    from ierk.harness import write_field_csv
    from ierk.spectral import Field, SpectralGrid, tanh_gaussian_bumps

    grid = SpectralGrid(-math.pi, math.pi, 64)
    u = Field(values=tanh_gaussian_bumps(grid.x))
    path = tmp_path / "snap.csv"
    write_field_csv(path, grid, u)
    assert path.read_text().startswith("x,u\n")
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(back[:, 0], grid.x)
    assert np.abs(back[:, 1] - u.values).max() <= 1e-15


def test_evolve_defaults():
    # a run given only its method, params and tau gets the energy-decay scene
    run = {"method": "IERK1", "params": {"theta": 1}, "tau": 0.02}
    scene = {"domain": [-math.pi, math.pi], "m": 256, "epsilon": 0.1, "kappa": 0.0,
             "initial": "tanh-bumps", "source": "none", "t_final": 150.0}
    trace, summary, _ = run_evolve(run)
    assert summary["domain"] == [-math.pi, math.pi] and summary["m"] == 256
    assert summary["steps"] == 7500 and summary["kappa"] == 0.0 and not summary["diverged"]
    other, _, _ = run_evolve({**run, **scene})
    assert np.array_equal(trace.energies, other.energies)
    # epsilon = 0.1 is the one value of the scene the summary does not report
    shifted, _, _ = run_evolve({**run, "epsilon": 0.2})
    assert not np.array_equal(trace.energies, shifted.energies)


def test_converge_defaults():
    study = {"method": "IERK1", "params": {"theta": 0.5}, "tau_grid": [0.1, 0.05]}
    scene = {"domain": [0, 2 * math.pi], "m": 256, "epsilon": 0.2, "kappa": 0.0,
             "initial": "sine", "source": "manufactured", "t_final": 1.0}
    assert run_converge(study).rows == run_converge({**study, **scene}).rows
    assert run_converge(study).rows != run_converge({**study, "epsilon": 0.1}).rows


def test_parse_converts_numbers_once():
    cfg = {"method": "IERK1", "params": {"theta": "1/2"}, "tau": 1, "m": 64, "domain": [0, 1],
           "reference": {"method": "IERK2-1"}}
    exp = Experiment.parse({**cfg, "tau_grid": [1, 0.5]})
    assert exp.domain == (0.0, 1.0) and exp.tau_grid == (1.0, 0.5)
    assert [type(x) for x in (*exp.domain, exp.tau, exp.t_final, exp.epsilon)] == [float] * 5
    assert exp.reference == {"method": "IERK2-1", "params": {}, "tau": harness.REFERENCE_TAU}
    ref = Experiment.parse(cfg, "evolve").reference_run()
    assert (ref.method, ref.params, ref.tau, ref.reference, ref.m, ref.epsilon) == (
        "IERK2-1", {}, harness.REFERENCE_TAU, None, 64, 0.1)


@pytest.mark.parametrize("argv", [
    ["certify", "--tableau", "{tab}", "--p", "theta=1"],
    ["verify", "--config", "{cfg}"],
    ["evolve", "--config", "{cfg}", "--tau", "0.1", "--t-final", "0.5", "--m", "32"],
])
def test_cli_tableau_file_with_params_exits_2(argv, tmp_path, capsys):
    tab = tmp_path / "crank.json"
    tab.write_text(json.dumps(tableau_to_dict(registry("IERK1", {"theta": F(1, 2)}))))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tableau_file": str(tab), "params": {"theta": 1}}))
    out_dir = tmp_path / "run"
    argv = [{"{tab}": str(tab), "{cfg}": str(cfg)}.get(a, a) for a in argv]
    assert main([*argv, "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err == "error: a tableau file takes no parameters, got theta\n"
    assert not (out_dir / "report.json").exists()


def test_cli_evolve_overflowing_epsilon_square_exits_2(tmp_path, capsys):
    out_dir = tmp_path / "run"
    rc = main(["evolve", "IERK1", "--theta", "1", "--tau", "0.1", "--t-final", "0.5",
               "--epsilon", "1e200", "--out", str(out_dir)])
    assert rc == 2
    assert capsys.readouterr().err == "error: epsilon**2 must be finite, got epsilon=1e+200\n"
    assert not (out_dir / "report.json").exists()


_HUGE = 10**400  # a JSON integer that float() cannot convert


@pytest.mark.parametrize("command, cfg, key", [
    ("evolve", {**_EVOLVE_CFG, "epsilon": _HUGE}, "config key 'epsilon'"),
    ("evolve", {**_EVOLVE_CFG, "kappa": _HUGE}, "config key 'kappa'"),
    ("evolve", {**_EVOLVE_CFG, "t_final": _HUGE}, "config key 't_final'"),
    ("evolve", {**_EVOLVE_CFG, "tau": -_HUGE}, "config key 'tau'"),
    ("evolve", {**_EVOLVE_CFG, "domain": [0, _HUGE]}, "config key 'domain'"),
    ("evolve", {**_EVOLVE_CFG, "reference": {"method": "IERK1", "params": {"theta": 0.5},
                                             "tau": _HUGE}}, "reference config key 'tau'"),
    ("converge", {**_CONVERGE_CFG, "tau_grid": [0.1, _HUGE]}, "config key 'tau_grid'"),
])
def test_cli_config_integer_too_large_for_a_float_exits_2(command, cfg, key, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "run"
    assert main([command, "--config", str(path), "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err == f"error: {key} holds a number too large for a float\n"
    assert not (out_dir / "report.json").exists()


@pytest.mark.parametrize("command, flags", [
    ("verify", ["IERK1", "--theta", "1/2"]),
    ("certify", ["IERK1", "--theta", "1/2"]),
    ("scan", ["IERK2-1", "--symbol", "c2", "--lo", "0.5", "--hi", "1", "--a33", "1"]),
])
@pytest.mark.parametrize("extra, message", [
    ({"source": "bogus"}, "unknown source 'bogus' (use none | manufactured)"),
    ({"epsilon": math.inf}, "epsilon and kappa must be finite"),
    ({"kappa": math.nan}, "epsilon and kappa must be finite"),
    ({"params": [1]}, "config key 'params' must be an object of numbers or strings, got [1]"),
])
def test_cli_every_command_parses_its_config(command, flags, extra, message, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(extra))
    assert main([command, *flags, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


_SCAN_FLAGS = ["--symbol", "c2", "--lo", "0.5", "--hi", "1", "--step", "0.1"]


@pytest.mark.parametrize("argv, cfg", [
    (["verify", "IERK1", "--theta", "1/2"], None),
    (["verify", "--theta", "1/2"], {"method": "IERK1"}),
    (["certify", "IERK3-2", "--p", "a43=-3/5"], None),
    (["certify", "--tableau", "{tab}"], {"experiment": "crank"}),
    (["scan", "IERK2-1", *_SCAN_FLAGS, "--a33", "1"], None),
    (["scan", *_SCAN_FLAGS], {"method": "IERK2-1", "params": {"a33": 1}}),
    (["converge", "IERK1", "--theta", "1/2", "--m", "32", "--tau-grid", "0.1,0.05"], None),
    (["converge", "--tau-grid", "0.1,0.05"], _CONVERGE_CFG),
    (["evolve", "IERK1", "--theta", "1/2", "--tau", "0.1", "--t-final", "0.5", "--m", "32",
      "--record-stages", "--out", "{out}"], None),
    (["evolve", "--record-stages", "--out", "{out}"], _EVOLVE_CFG),
])
def test_cli_parses_once_and_builds_the_tableau_once(argv, cfg, tmp_path, monkeypatch, capsys):
    counts = {"parse": 0, "build": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    parse = Experiment.parse.__func__
    monkeypatch.setattr(Experiment, "parse", classmethod(counted("parse", parse)))
    monkeypatch.setattr(harness, "registry", counted("build", harness.registry))
    monkeypatch.setattr(harness, "load_tableau", counted("build", harness.load_tableau))
    tab, path = tmp_path / "crank.json", tmp_path / "cfg.json"
    tab.write_text(json.dumps(tableau_to_dict(registry("IERK1", {"theta": F(1, 2)}))))
    path.write_text(json.dumps(cfg))
    argv = [{"{tab}": str(tab), "{out}": str(tmp_path / "run")}.get(a, a) for a in argv]
    assert main(argv + (["--config", str(path)] if cfg else [])) in (0, 1)
    assert capsys.readouterr().err == ""
    assert counts == {"parse": 1, "build": 0 if argv[0] == "scan" else 1}
    if "--record-stages" in argv:
        assert (tmp_path / "run" / "stages.csv").read_text().startswith("n,i,c_i,E_stage\n")


def test_svg_flat_series_at_large_magnitude(tmp_path):
    from ierk.harness import svg_line_plot

    for level in (3e17, -3e17, 1.5e308, 0.0):
        path = tmp_path / "plot.svg"
        svg_line_plot(path, [("flat", [0, 1], [level, level]), ("x", [5e300, 5e300], [1, 2])])
        text = path.read_text()
        assert text.startswith("<svg") and "nan" not in text and "inf" not in text


@pytest.mark.parametrize("logx, logy", [(False, False), (True, True)])
def test_svg_drops_non_finite_points(logx, logy, tmp_path):
    from ierk.harness import svg_line_plot

    path = tmp_path / "plot.svg"
    svg_line_plot(path, [("e", [1, 2, 3, 4, math.inf], [1.0, math.nan, 0.5, math.inf, 2.0]),
                         ("f", [1, math.nan], [0.25, 0.25])], logx=logx, logy=logy)
    points = _svg_points(path)
    assert len(points) == 6 and all(map(math.isfinite, points))
    with pytest.raises(ValueError, match="nothing to plot"):
        svg_line_plot(path, [("e", [1, 2], [math.nan, -math.inf])])


def test_cli_evolve_huge_domain_writes_report(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**_EVOLVE_CFG, "domain": [0, 1e308], "initial": "sine"}))
    out_dir = tmp_path / "run"
    assert main(["evolve", "--config", str(path), "--out", str(out_dir)]) == 0
    assert _strict_json((out_dir / "report.json").read_text())["domain"] == [0.0, 1e308]
    assert (out_dir / "plot.svg").read_text().startswith("<svg")


def _huge_param_case(tmp_path, form):
    """(argv, message): IERK1, a scan's fixed parameter or a tableau file with an
    entry no float can hold,
    or ("pair") a tableau whose entries fit but whose D_E holds 1 / a_hat_32 = 10**400,
    or ("float pair") a float tableau whose D_E overflows with 1 / a_hat_32 = 1 / 1e-310."""
    coefficient = "a coefficient is too large for a float"
    if form == "flag":
        return ["certify", "IERK1", "--theta", str(_HUGE)], f"IERK1: {coefficient}"
    if form == "verify":
        return ["verify", "IERK1", "--p", f"theta={_HUGE}"], f"IERK1: {coefficient}"
    if form == "scan":
        return (["scan", "IERK2-1", "--symbol", "c2", "--lo", "0.5", "--hi", "1", "--a33", str(_HUGE)],
                f"IERK2-1: {coefficient}")
    if form == "config":
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**_EVOLVE_CFG, "params": {"theta": _HUGE}}))
        return ["evolve", "--config", str(path)], f"IERK1: {coefficient}"
    path = tmp_path / "huge.json"
    if form == "mixed":
        # a float entry makes the tableau float, so the integer entries must fit too
        path.write_text(json.dumps({"name": "mixed", "s": 3, "c": [0, 0.5, 1],
                                    "A": [[0, 0, 0], [0.25, 0.25, 0], [1.0, _HUGE, -_HUGE]],
                                    "A_hat": [[0, 0, 0], [0.5, 0, 0], [0, 1, 0]]}))
        return ["certify", "--tableau", str(path)], f"mixed: {coefficient}"
    if form == "float pair":
        path.write_text(json.dumps({"name": "tiny", "s": 3, "c": [0, 0.5, 1],
                                    "A": [[0, 0, 0], [0.25, 0.25, 0], [0.25, 0.25, 0.5]],
                                    "A_hat": [[0, 0, 0], [0.5, 0, 0], [1.0, 1e-310, 0]]}))
        return (["certify", "--tableau", str(path)],
                "tiny: (D_E, D_EI) has an entry too large for a float")
    if form == "pair":
        path.write_text(json.dumps({"name": "tiny", "s": 3, "c": [0, "1/2", 1],
                                    "A": [[0, 0, 0], ["1/4", "1/4", 0], ["1/4", "1/4", "1/2"]],
                                    "A_hat": [[0, 0, 0], ["1/2", 0, 0],
                                              [f"{_HUGE - 1}/{_HUGE}", f"1/{_HUGE}", 0]]}))
        return (["certify", "--tableau", str(path)],
                "tiny: (D_E, D_EI) has an entry too large for a float")
    path.write_text(json.dumps({"name": "huge", "s": 3, "c": [0, "1/2", 1],
                                "A": [[0, 0, 0], ["1/4", "1/4", 0], [_HUGE, -_HUGE, 1]],
                                "A_hat": [[0, 0, 0], ["1/2", 0, 0], [0, 1, 0]]}))
    return ["certify", "--tableau", str(path)], f"huge: {coefficient}"


@pytest.mark.parametrize("form", ["flag", "verify", "scan", "config", "tableau", "mixed",
                                  "pair", "float pair"])
def test_cli_coefficient_too_large_for_a_float_exits_2(form, tmp_path, capsys):
    argv, message = _huge_param_case(tmp_path, form)
    out_dir = tmp_path / "run"
    assert main([*argv, "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (out_dir / "report.json").exists()


def test_every_public_name_resolves():
    import ierk

    assert [name for name in ierk.__all__ if not hasattr(ierk, name)] == []


def test_cli_verify_overflowing_residual_writes_null(tmp_path, capsys):
    # b.(A c) = theta**2 = 1e400: the exact residual overflows a float
    code, report, err = _cli_strict_report(["verify", "IERK1", "--theta", "1e200"],
                                           tmp_path, capsys)
    assert code == 0 and err == "" and report["attained_order"] == 1
    residuals = {c["name"]: c["residual"] for c in report["conditions"]}
    assert residuals["b_1"] == 0.0 and residuals["b_c"] == 1e200
    assert residuals["b_Ac"] is None and report["max_residual_by_order"]["3"] is None


@pytest.mark.parametrize("argv", [
    ["verify", "IERK1", "--theta", "1/2"],
    ["certify", "IERK3-4stage", "--a22", "2"],
])
@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1", "1", "1e6"])
def test_cli_tol_outside_unit_interval_exits_2(argv, tol, tmp_path, capsys):
    out_dir = tmp_path / "run"
    assert main([*argv, "--tol", tol, "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: argument --tol: ") and err.count("\n") == 1
    assert not (out_dir / "report.json").exists()


@pytest.mark.parametrize("command", ["verify", "certify"])
def test_cli_tol_zero_is_accepted(command, capsys):
    assert main([command, "IERK1", "--theta", "1", "--tol", "0"]) == 0
    capsys.readouterr()
