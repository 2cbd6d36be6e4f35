"""Command-line interface.

    ierk verify  <method|--tableau f.json> [--<param> VALUE ...] [--tol T]
    ierk certify <method|--tableau f.json> [--<param> VALUE ...] [--tol T]
    ierk scan    <family> --symbol S --lo A --hi B --step H [--target T]
    ierk rate-table
    ierk converge --config cfg.json [overrides]
    ierk evolve   --config cfg.json [overrides]

Method parameters ride along as plain flags (`--c2 1 --a33 0.5`) or as
repeated `--p NAME=VALUE`; values parse exactly ("0.5" and "1/2" are the
same rational). Every subcommand takes --out DIR (report.json plus table.csv /
trace.csv / plot.svg as applicable), and all but rate-table take --config (JSON
object of the keys of `harness.Experiment`; a same-named option overrides one).
Exit codes: 0 success, 1 a requested check failed, 2 invalid configuration
or parameters.
"""

from __future__ import annotations

import argparse
import math
import json
import os
import re
import sys as _sys

from . import harness
from .errors import IerkError
from .spectral import SpectralGrid
from .tableau import FAMILIES

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_CONFIG = 2


def _parse_params(pairs):
    params = {}
    for item in pairs or ():
        if "=" not in item:
            raise ValueError(f"--p expects NAME=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        params[key.strip()] = value.strip()
    return params


def _check_flags(command, cfg, flags):
    """Refuse a parameter flag that the method does not take, most likely an
    option that the command does not have; an unknown method is left to the
    registry, and a method that is not a string to the parse."""
    tableau_file, method = cfg.get("tableau_file"), cfg.get("method")
    family = FAMILIES.get(method) if isinstance(method, str) and not tableau_file else None
    if family is None and not tableau_file:
        return
    method, symbols = (family.name, family.free_symbols) if family else ("a --tableau method", ())
    for name in flags:
        if name not in symbols:
            takes = f"the parameters: {', '.join(symbols)}" if symbols else "no parameters"
            raise ValueError(f"{command} has no option --{name}; {method} takes {takes}")


def _split_params(ap, argv):
    """Split argv into (argparse's tokens, method parameters {name: text}).

    A `--name` flag is a method parameter when no option of its subcommand
    starts with `--name`, so argparse would not know it either. This lets the
    natural form `certify IERK2-1 --c2 1 --a33 0.5` work without pre-declaring
    every family's symbols. Taking its value here, rather than after argparse,
    keeps that value from filling the optional METHOD positional (`evolve
    --config cfg.json --theta 1/2`). The values stay text until the tableau
    is built; `_experiment` checks the names against the method first.
    """
    command = next((tok for tok in argv if not tok.startswith("-")), None)
    sub = ap.commands.get(command)
    if sub is None:
        return list(argv), {}
    options = sub._option_string_actions
    rest, params = [], {}
    tokens = iter(argv)
    for tok in tokens:
        flag, eq, value = tok.partition("=")
        if len(flag) > 2 and flag.startswith("--") and not any(o.startswith(flag) for o in options):
            if not eq:
                value = next(tokens, None)
                if value is None:
                    raise ValueError(f"missing value for parameter {flag}")
            params[flag[2:]] = value
        elif re.match(r"-\.?\d", tok) and rest and rest[-1][:2] == "--" and "=" not in rest[-1]:
            rest[-1] += "=" + tok  # a negative value: argparse may take "-1e-3" for an option
        else:
            rest.append(tok)
    return rest, params


def _experiment(args, command=None):
    """The command's one `Experiment`: the config file's mapping with every key the
    subcommand's options set and the method parameters of `--p` and plain flags."""
    cfg = harness.load_config(args.config) if args.config else {}
    for key in harness.CONFIG_SCHEMA:
        if getattr(args, key, None) is not None:
            cfg[key] = getattr(args, key)
    _check_flags(args.command, cfg, args.extra_params)
    extra = {**_parse_params(getattr(args, "p", None)), **args.extra_params}
    params = cfg.get("params")
    if extra and (params is None or isinstance(params, dict)):  # else the parse names it
        cfg["params"] = {**(params or {}), **extra}
    return harness.Experiment.parse(cfg, command)


def _finite(obj):
    """The report with every non-finite float replaced by None (JSON null)."""
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def _emit(outdir, report, ok) -> int:
    """Print the report and write it to outdir/report.json, as strict JSON; exit 0 if ok, else 1."""
    report = _finite(report)
    if outdir:
        harness.write_json(os.path.join(outdir, "report.json"), report)
    json.dump(report, _sys.stdout, indent=2, sort_keys=True, allow_nan=False)
    _sys.stdout.write("\n")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _add_common(p, method_positional=True):
    if method_positional:
        p.add_argument("method", nargs="?", help="registry method id")
    p.add_argument("--tableau", dest="tableau_file",
                   help="JSON tableau file instead of a registry id")
    p.add_argument("--config", help="JSON experiment config")
    p.add_argument("--out", help="output directory")
    p.add_argument("--p", action="append", metavar="NAME=VALUE",
                   help="method parameter (repeatable)")


def float_list(text):
    return [float(x) for x in text.split(",")]


def tolerance(text):
    tol = float(text)
    if not 0 <= tol < 1:
        raise argparse.ArgumentTypeError(f"must be a finite value in [0, 1), got {text}")
    return tol


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a one-line ValueError (exit 2), like any bad input."""

    def error(self, message):
        raise ValueError(message)


def build_parser():
    ap = _Parser(prog="ierk", description="IMEX Runge-Kutta energy-dissipation toolkit")
    sub = ap.add_subparsers(dest="command", required=True)
    ap.commands = sub.choices

    p = sub.add_parser("verify", help="check order conditions")
    _add_common(p)
    p.add_argument("--tol", type=tolerance, default=1e-10)

    p = sub.add_parser("certify", help="certify unconditional energy dissipation")
    _add_common(p)
    p.add_argument("--tol", type=tolerance, default=1e-12,
                   help="relative eigenvalue threshold for a float tableau; "
                        "a rational tableau is decided exactly")

    p = sub.add_parser("scan", help="scan one parameter for certification")
    _add_common(p)
    p.add_argument("--symbol", required=True)
    p.add_argument("--lo", type=float, required=True)
    p.add_argument("--hi", type=float, required=True)
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--target", default="certified", choices=("certified", "d_e", "d_ei"))

    p = sub.add_parser("rate-table", help="average dissipation rates at the best parameters")
    p.add_argument("--out", help="output directory")

    for name in ("converge", "evolve"):
        p = sub.add_parser(name, help=f"run the {name} experiment")
        _add_common(p)
        p.add_argument("--m", type=int)
        p.add_argument("--epsilon", type=float)
        p.add_argument("--kappa", type=float)
        p.add_argument("--t-final", dest="t_final", type=float)
        if name == "converge":
            p.add_argument("--tau-grid", dest="tau_grid", type=float_list,
                           help="comma-separated decreasing step sizes")
        else:
            p.add_argument("--initial", choices=("sine", "tanh-bumps"))
            p.add_argument("--tau", type=float)
            p.add_argument("--record-stages", dest="record_stages", action="store_true",
                           default=None)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        rest, params = _split_params(ap, _sys.argv[1:] if argv is None else argv)
        args = ap.parse_args(rest)
        args.extra_params = params
        return _dispatch(args)
    except (IerkError, ValueError, KeyError, OSError) as exc:  # JSONDecodeError is a ValueError
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_BAD_CONFIG


def _dispatch(args) -> int:
    outdir = harness.ensure_outdir(getattr(args, "out", None))

    if args.command in ("verify", "certify"):
        run = harness.run_verify if args.command == "verify" else harness.run_certify
        report = run(_experiment(args).tableau, tol=args.tol)
        return _emit(outdir, report, report["ok"])

    if args.command == "scan":
        exp = _experiment(args)
        if not exp.method:
            raise ValueError("scan needs a method family")
        report = harness.run_scan(exp.method, args.symbol, args.lo, args.hi, args.step,
                                  fixed=exp.params, target=args.target)
        rows = report.pop("rows")
        if outdir:
            harness.write_csv(
                os.path.join(outdir, "table.csv"),
                (args.symbol, "certified"),
                [(r["value"], "" if r["verdict"] is None else int(r["verdict"])) for r in rows],
            )
        return _emit(outdir, report, report["ok"])

    if args.command == "rate-table":
        if args.extra_params:
            raise ValueError(f"rate-table has no option --{next(iter(args.extra_params))}")
        rows = harness.run_rate_table()
        if outdir:
            harness.write_csv(
                os.path.join(outdir, "table.csv"),
                ("method", "params", "intercept", "slope", "certified"),
                [
                    (r["method"], "\"" + ";".join(f"{k}={v}" for k, v in r["params"].items()) + "\"",
                     r["intercept"], r["slope"], int(r["certified"]))
                    for r in rows
                ],
            )
        return _emit(outdir, {"rows": rows, "ok": True}, True)

    if args.command == "converge":
        table = harness.run_converge(_experiment(args, "converge"))
        report = {
            "method": table.method,
            "params": table.params,
            "kappa": table.kappa,
            "observed_order": table.observed_order(),
            "rows": [
                {"tau": r.tau, "error": r.error, "observed_order": r.observed_order}
                for r in table.rows
            ],
            "ok": all(math.isfinite(r.error) for r in table.rows),
        }
        if outdir:
            harness.write_convergence_csv(os.path.join(outdir, "table.csv"), table)
            finite = [(r.tau, r.error) for r in table.rows
                      if r.error > 0 and r.error != float("inf")]
            if finite:
                harness.svg_line_plot(
                    os.path.join(outdir, "plot.svg"),
                    [(table.method, [t for t, _ in finite], [e for _, e in finite])],
                    title=f"max-norm error vs tau ({table.method})",
                    logx=True, logy=True,
                )
        return _emit(outdir, report, report["ok"])

    if args.command == "evolve":
        exp = _experiment(args, "evolve")
        trace, summary, final = harness.run_evolve(exp)
        if outdir:
            harness.write_trace_csv(os.path.join(outdir, "trace.csv"), trace)
            if trace.stage_energies is not None:
                harness.write_stage_csv(os.path.join(outdir, "stages.csv"), trace, exp.tableau)
            if final is not None:
                grid = SpectralGrid(*exp.domain, exp.m)
                harness.write_field_csv(os.path.join(outdir, "snapshot.csv"), grid, final)
            if len(trace):
                harness.svg_line_plot(
                    os.path.join(outdir, "plot.svg"),
                    [(summary["method"], trace.times, trace.energies)],
                    title=f"energy vs time ({summary['method']})",
                )
        return _emit(outdir, summary, not summary["diverged"])

    raise ValueError(f"unhandled command {args.command}")


if __name__ == "__main__":
    raise SystemExit(main())
