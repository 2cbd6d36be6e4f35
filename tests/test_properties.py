"""Property-based checks (run only where hypothesis is installed)."""

import contextlib
import io
import json
import math
import os
import tempfile
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from ierk.cli import main  # noqa: E402
from ierk.dissipation import (  # noqa: E402
    _psd_verdicts, certify, differentiation_pair, scan_parameter)
from ierk.errors import IerkError  # noqa: E402
from ierk.harness import CONFIG_SCHEMA  # noqa: E402
from ierk.tableau import (  # noqa: E402
    FAMILIES, METHOD_NAMES, ImexTableau, check_order_conditions, registry)

# The criterion-4 scan windows: (family, symbol, lo, hi, fixed parameters).
WINDOWS = (
    ("IERK2-1", "c2", 0.2, 2.25, {"a33": 1.0}),
    ("IERK3-1", "a55", 0.5, 2.0, {}),
    ("IERK3-2", "a43", -1.0, 0.0, {}),
    ("IERK3-Radau", "ahat43", 0.4, 1.2, {}),
)


@st.composite
def window_points(draw):
    family, symbol, lo, hi, fixed = draw(st.sampled_from(WINDOWS))
    return family, symbol, draw(st.floats(lo, hi)), fixed


@settings(derandomize=True, max_examples=80, deadline=None)
@given(window_points())
def test_flag_certificate_and_scan_agree(point):
    family, symbol, value, fixed = point
    tab = registry(family, {**fixed, symbol: value})
    cert = certify(tab)
    assume(abs(min(cert.psd_d_e.min_eigenvalue, cert.psd_d_ei.min_eigenvalue)) > 1e-9)
    (scanned,) = scan_parameter(family, symbol, value, value, 1.0, fixed=fixed).verdicts
    assert tab.outside_certified_range == (not cert.certified) == (not scanned)


@st.composite
def rational_tableaux(draw):
    """A random s-stage tableau that passes `validate_tableau`: explicit first
    stage, row sums equal to c (first column), nonzero explicit subdiagonal."""
    s = draw(st.integers(2, 7))
    entry = st.fractions(-3, 3, max_denominator=draw(st.sampled_from([8, 1000, 10**9])))
    nonzero = entry.filter(bool)
    c = [Fraction(0), *(draw(nonzero) for _ in range(s - 2)), Fraction(1)]
    A, A_hat = [[Fraction(0)] * s], [[Fraction(0)] * s]
    for i in range(1, s):
        a = [draw(entry) for _ in range(i)]
        a_hat = [draw(entry) for _ in range(i - 2)] + [draw(nonzero)] if i > 1 else []
        A.append([c[i] - sum(a), *a] + [Fraction(0)] * (s - 1 - i))
        A_hat.append([c[i] - sum(a_hat), *a_hat] + [Fraction(0)] * (s - i))
    return ImexTableau(name="random", c=c, A=A, A_hat=A_hat)


def _reference_residuals(t):
    """{name: (order, residual)}: each condition in plain Python arithmetic on
    the entries as stored, its Fraction target subtracted, then rounded."""
    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    def mv(M, v):
        return [dot(row, v) for row in M]

    def had(u, v):
        return [x * y for x, y in zip(u, v)]

    c, A, Ah = list(t.c), [list(r) for r in t.A], [list(r) for r in t.A_hat]
    b, bh = A[-1], Ah[-1]
    c2 = had(c, c)
    values = {
        "b_1": (1, dot(b, [1] * t.s), 1), "bh_1": (1, dot(bh, [1] * t.s), 1),
        "b_c": (2, dot(b, c), 2), "bh_c": (2, dot(bh, c), 2),
        "b_c2": (3, dot(b, c2), 3), "bh_c2": (3, dot(bh, c2), 3),
        "b_c3": (4, dot(b, had(c2, c)), 4), "bh_c3": (4, dot(bh, had(c2, c)), 4),
    }
    for w, wn in ((b, "b"), (bh, "bh")):
        for M, Mn in ((A, "A"), (Ah, "Ah")):
            values[f"{wn}_{Mn}c"] = (3, dot(w, mv(M, c)), 6)
            values[f"{wn}_c.{Mn}c"] = (4, dot(w, had(c, mv(M, c))), 8)
            values[f"{wn}_{Mn}c2"] = (4, dot(w, mv(M, c2)), 12)
            for N, Nn in ((A, "A"), (Ah, "Ah")):
                values[f"{wn}_{Mn}{Nn}c"] = (4, dot(w, mv(M, mv(N, c))), 24)
    return {name: (order, abs(float(value - Fraction(1, q))))
            for name, (order, value, q) in values.items()}


@settings(derandomize=True, max_examples=150, deadline=None)
@given(rational_tableaux(), st.randoms(use_true_random=False))
def test_order_residuals_equal_the_fraction_reference(tab, rnd):
    float_view = ImexTableau(name="float view", c=[float(x) for x in tab.c],
                             A=[[float(x) for x in r] for r in tab.A],
                             A_hat=[[float(x) for x in r] for r in tab.A_hat])
    # the mixed view turns some entries into floats; the rest, zeros included,
    # stay Fractions, as in a family built at a float parameter
    mixed = [[float(x) if rnd.random() < 0.3 else x for x in row]
             for row in (tab.c, *tab.A, *tab.A_hat)]
    mixed[0][-1] = float(mixed[0][-1])  # c[-1] = 1: at least one float entry
    s = tab.s
    mixed_view = ImexTableau(name="mixed view", c=mixed[0], A=mixed[1:s + 1], A_hat=mixed[s + 1:])
    assert tab.exact and not float_view.exact and not mixed_view.exact
    for t in (tab, float_view, mixed_view):
        got = {c.name: (c.order, c.residual) for c in check_order_conditions(t).conditions}
        assert got == _reference_residuals(t)


@st.composite
def rational_window_tableaux(draw):
    """A registry tableau at a rational point of a criterion-4 scan window, so
    that both verdicts occur."""
    family, symbol, lo, hi, fixed = draw(st.sampled_from(WINDOWS))
    value = draw(st.fractions(Fraction(str(lo)), Fraction(str(hi)), max_denominator=1000))
    try:
        return registry(family, {**{k: Fraction(v) for k, v in fixed.items()}, symbol: value})
    except IerkError:
        assume(False)


def _fraction_det(S):
    """Determinant of a square list of Fractions by Gaussian elimination with row swaps."""
    S, det = [list(row) for row in S], Fraction(1)
    for k in range(len(S)):
        piv = next((i for i in range(k, len(S)) if S[i][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            S[k], S[piv], det = S[piv], S[k], -det
        det *= S[k][k]
        for i in range(k + 1, len(S)):
            f = S[i][k] / S[k][k]
            S[i] = [x - f * y for x, y in zip(S[i], S[k])]
    return det


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.one_of(rational_tableaux(), rational_window_tableaux()))
@example(registry("IERK4-A1"))  # s = 7, which the draws above seldom reach
@example(registry("IERK4-A2"))
@example(registry("IERK3-1", {"a55": Fraction(2, 5)}))  # a zero order-1 minor
def test_exact_certificate_matches_eigenvalues_and_fraction_minors(tab):
    cert = certify(tab)
    assert cert.refuted == (not cert.certified)
    pair = differentiation_pair(tab)
    witnesses = {w.matrix: w for w in cert.witnesses}
    for name, verdict, M, exact in (("D_E", cert.psd_d_e, pair.d_e, pair.exact_d_e),
                                    ("D_EI", cert.psd_d_ei, pair.d_ei, pair.exact_d_ei)):
        assert verdict.threshold == 0.0
        if abs(verdict.min_eigenvalue) > 1e-9 * max(1.0, float(np.abs(M).max())):
            assert verdict.is_psd == (verdict.min_eigenvalue > 0)
        n = len(exact)
        S = [[(exact[i][j] + exact[j][i]) / 2 for j in range(n)] for i in range(n)]
        minors = [_fraction_det([row[:k] for row in S[:k]]) for k in range(1, n + 1)]
        first_negative = next((k for k, m in enumerate(minors, start=1) if m < 0), None)
        w = witnesses.get(name)
        if verdict.is_psd:
            assert w is None and first_negative is None
        elif w is not None:
            assert w.order == first_negative and w.exact == minors[w.order - 1]
            assert w.determinant == float(w.exact)
        elif first_negative is not None:
            # the elimination stops at a zero minor it cannot divide by
            assert 0 in minors[:first_negative - 1]


@st.composite
def psd_test_stacks(draw):
    """An (n, k, k) stack of general, exactly singular PSD Gram, zero,
    diagonal with mixed signs, and zero-pivot matrices, each at its own scale."""
    k = draw(st.integers(1, 6))
    ints = st.integers(-4, 4)
    stack = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["general", "gram", "zero", "diagonal", "zero pivot"]))
        scale = 10.0 ** draw(st.integers(-8, 8))
        if kind == "gram":  # B^T B with rank < k: PSD and exactly singular
            B = np.array(draw(st.lists(st.lists(ints, min_size=k, max_size=k),
                                       min_size=0, max_size=k - 1)), dtype=float).reshape(-1, k)
            M = B.T @ B
        elif kind == "diagonal":
            M = np.diag(draw(st.lists(ints, min_size=k, max_size=k))).astype(float)
        elif kind == "zero":
            M = np.zeros((k, k))
        else:
            M = np.array(draw(st.lists(st.floats(-4, 4), min_size=k * k, max_size=k * k)))
            M = M.reshape(k, k)
            if kind == "zero pivot":
                j = draw(st.integers(0, k - 1))
                M[j, j] = 0.0
        stack.append(M * scale)
    return np.array(stack)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(psd_test_stacks(), st.sampled_from([0.0, 1e-12, 1e-3]))
def test_psd_verdicts_equal_the_eigenvalue_verdict(stack, tol):
    got = _psd_verdicts(stack, tol)
    scale = np.maximum(1.0, np.abs(stack).max(axis=(-2, -1)))
    min_eig = np.linalg.eigvalsh(0.5 * (stack + stack.swapaxes(-1, -2))).min(axis=-1)
    thr = tol * scale
    clear = np.abs(min_eig + thr) > 1e-9 * scale
    assert (got[clear] == (min_eig >= -thr)[clear]).all()


# Configs: for each command, a config of the keys it reads with mostly valid
# values, and up to two keys (of any command) set to JSON of another type or to
# an odd number. A run takes at most 20 steps (t_final <= 1, tau >= 0.05; an odd
# tau or t_final is refused or gives at most 6) and its reference run at most
# 40, on at most 64 nodes.
_TEXT = st.text("abcIERK-13/.", max_size=6)
_HUGE = st.integers(2**1024 - 2**970, 2**1100)  # float() cannot convert these
_JUNK = st.recursive(  # never a finite number below 2**1024
    st.none() | st.booleans() | _TEXT | _HUGE | st.sampled_from([math.nan, math.inf, -math.inf]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_TEXT, inner, max_size=3),
    max_leaves=6)
_ODD = st.sampled_from([0, -1, 0.3, 2**40, 1e-300, 1e300, -0.0])
_COEF = st.sampled_from(["1/2", "-3/5", "4/5", "2", "x"]) | st.integers(-2, 2) | st.floats(-2, 2)
_TAU = st.sampled_from([0.05, 0.1, 0.25, 0.5])


@st.composite
def _method_params(draw):
    """(method, params): mostly the method's own parameters, else any symbols."""
    method = draw(st.sampled_from(METHOD_NAMES))
    symbols = FAMILIES[method].free_symbols
    own = st.fixed_dictionaries({k: _COEF for k in symbols})
    other = st.dictionaries(st.sampled_from(symbols + ("theta", "bogus")), _COEF, max_size=2)
    return method, draw(own | other)


_VALUES = {
    "experiment": _TEXT,
    "method": None,  # drawn with its params
    "params": None,
    "tableau_file": st.none(),
    "domain": st.lists(st.floats(-4, 4), min_size=2, max_size=2).map(sorted),
    "m": st.sampled_from([2, 16, 64]),
    "epsilon": st.floats(0.01, 1),
    "kappa": st.floats(0, 8),
    "source": st.sampled_from(["none", "manufactured"]),
    "initial": st.sampled_from(["sine", "tanh-bumps"]),
    "t_final": st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0, 1),
    "tau": _TAU,
    "tau_grid": st.lists(_TAU, min_size=1, max_size=4, unique=True).map(
        lambda taus: sorted(taus, reverse=True)),
    "record_stages": st.booleans(),
    "reference": _method_params().flatmap(lambda mp: st.fixed_dictionaries(
        {"method": st.just(mp[0]), "tau": _TAU.map(lambda t: t / 2)},
        optional={"params": st.just(mp[1])})),
}
assert set(_VALUES) == set(CONFIG_SCHEMA)
_SCENE = ("experiment", "domain", "epsilon", "kappa")
_KEYS = {  # per command: the keys set besides method and params, and the keys maybe set
    "verify": ((), tuple(CONFIG_SCHEMA)),
    "certify": ((), tuple(CONFIG_SCHEMA)),
    "converge": (("m", "t_final", "tau_grid"), _SCENE),
    "evolve": (("m", "t_final", "tau"),
               _SCENE + ("source", "initial", "record_stages", "reference")),
}


@st.composite
def commands_and_configs(draw):
    """(command, config, plain parameter flags)."""
    command = draw(st.sampled_from(sorted(_KEYS)))
    always, maybe = _KEYS[command]
    keys = set(always) | set(draw(st.lists(st.sampled_from(maybe), unique=True)))
    method, params = draw(_method_params())
    cfg = {"method": method, "params": params}
    cfg.update({key: draw(_VALUES[key]) for key in keys if _VALUES[key] is not None})
    for key in draw(st.lists(st.sampled_from(sorted(CONFIG_SCHEMA)), max_size=2, unique=True)):
        cfg[key] = draw(_JUNK | _ODD)
    symbols = FAMILIES[method].free_symbols
    flags = draw(st.sampled_from([[]] + [[f"--{k}", "1/2"] for k in symbols + ("theta",)]))
    return command, cfg, flags


def _reject_constant(constant):
    raise ValueError(f"{constant} is not JSON")


@settings(derandomize=True, max_examples=150, deadline=None)
@given(commands_and_configs())
def test_any_config_exits_0_1_or_2(case):
    # exit 2 prints one line; any report.json is strict JSON; main never raises
    command, cfg, flags = case
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "cfg.json"), os.path.join(tmp, "run")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)  # NaN and Infinity literals, as Python's json reads them
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main([command, "--config", path, *flags, "--out", out])
        assert code in (0, 1, 2)
        if code == 2:
            assert stderr.getvalue().startswith("error: ") and stderr.getvalue().count("\n") == 1
        if os.path.exists(os.path.join(out, "report.json")):
            with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
                json.load(fh, parse_constant=_reject_constant)
