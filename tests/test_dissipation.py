import math
from fractions import Fraction as F

import numpy as np
import pytest

from ierk import dissipation
from ierk.dissipation import (
    _psd_verdicts,
    _sym_elimination,
    average_rate,
    certify,
    difference_coefficients,
    difference_from_reduced,
    differentiation_pair,
    doc_kernels,
    orthogonality_defect,
    scan_parameter,
)
from ierk.errors import DegenerateParameters, InvalidTableau
from ierk.tableau import family_batch, registry, reduced_matrices

from conftest import REGISTRY_CASES

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# difference coefficients
# ---------------------------------------------------------------------------

def test_difference_coefficients_ierk1():
    d = difference_coefficients(registry("IERK1", {"theta": F(3, 5)}))
    assert d.implicit == ((F(3, 5),),)
    assert d.explicit == ((F(1),),)


def test_difference_coefficients_ierk2_2():
    # explicit first-column difference: (2 - sqrt2)/2 - sqrt2/2 = 1 - sqrt2
    d = difference_coefficients(registry("IERK2-2", {"a33": 0.75}))
    assert d.explicit[1][0] == pytest.approx(1 - SQRT2, abs=1e-15)


def test_difference_coefficients_ierk2_radau():
    c2 = F(3, 2)
    d = difference_coefficients(registry("IERK2-Radau", {"c2": c2}))
    assert d.implicit[1][0] == 1 / (2 * (1 - c2)) - c2


def test_row_prefix_sums_reconstruct_reduced_matrices():
    for name, params in REGISTRY_CASES:
        t = registry(name, params)
        A_I, A_E = reduced_matrices(t)
        d = difference_coefficients(t)
        n = t.s_implicit
        for i in range(n):
            for j in range(n):
                assert abs(float(sum(d.implicit[k][j] for k in range(i + 1)) - A_I[i][j])) < 1e-14
                assert abs(float(sum(d.explicit[k][j] for k in range(i + 1)) - A_E[i][j])) < 1e-14


# ---------------------------------------------------------------------------
# orthogonal convolution kernels
# ---------------------------------------------------------------------------

def test_kernels_single_stage():
    d = difference_from_reduced(None, ((1,),))
    assert doc_kernels(d).theta == ((1,),)


def test_kernels_ierk2_2_closed_form():
    t = registry("IERK2-2", {"a33": 0.9})
    k = doc_kernels(difference_coefficients(t))
    expected = np.array([[SQRT2, 0.0], [2 * SQRT2 - 2, SQRT2]])
    assert np.allclose(np.array(k.theta, dtype=float), expected, atol=1e-14)


def test_kernels_zero_subdiagonal_rejected():
    d = difference_from_reduced(None, ((1.0, 0.0), (0.5, 0.0)))
    with pytest.raises(InvalidTableau):
        doc_kernels(d)


def test_orthogonality_identity_registry():
    for name, params in REGISTRY_CASES:
        t = registry(name, params)
        d = difference_coefficients(t)
        k = doc_kernels(d)
        defect = orthogonality_defect(d, k)
        if t.exact:
            assert defect == 0.0, name
        else:
            assert defect <= 1e-13, name


def test_kernels_match_triangular_solve_oracle(rng):
    # direct solve of A_E Theta = E is an independent route to the kernels
    for _ in range(100):
        n = int(rng.integers(1, 7))
        A_E = np.tril(rng.uniform(-1.0, 1.0, (n, n)))
        diag = rng.uniform(0.1, 1.0, n) * rng.choice([-1.0, 1.0], n)
        A_E[np.diag_indices(n)] = diag
        d = difference_from_reduced(None, tuple(map(tuple, A_E)))
        theta = np.array(doc_kernels(d).theta, dtype=float)
        oracle = np.linalg.solve(A_E, np.tril(np.ones((n, n))))
        assert np.allclose(theta, oracle, atol=1e-13 * max(1.0, abs(oracle).max()))


# ---------------------------------------------------------------------------
# differentiation matrices
# ---------------------------------------------------------------------------

def test_pair_ierk1_closed_form():
    for theta in (F(1, 2), F(3, 4), F(1)):
        pair = differentiation_pair(registry("IERK1", {"theta": theta}))
        assert pair.exact_d_e == ((1,),)
        assert pair.exact_d_ei == ((theta - F(1, 2),),)


IERK21_POINTS = [(F(1), F(1)), (F(1), F(1, 2)), (F(3, 4), F(2)), (F(1, 2), F(5, 4)), (F(2), F(1, 3))]


@pytest.mark.parametrize("c2,a33", IERK21_POINTS)
def test_pair_ierk2_1_closed_form(c2, a33):
    pair = differentiation_pair(registry("IERK2-1", {"c2": c2, "a33": a33}))
    assert pair.exact_d_e == ((1 / c2, F(0)), (2 * c2 + 1 / c2 - 2, 2 * c2))
    diag = 2 * c2 * a33 - F(1, 2)
    assert pair.exact_d_ei == ((diag, F(0)), (-2 * a33 * (2 * c2 * c2 - 2 * c2 + 1), diag))


def test_pair_ierk2_radau_closed_form():
    for c2 in (F(3, 2), F(2)):
        pair = differentiation_pair(registry("IERK2-Radau", {"c2": c2}))
        assert pair.exact_d_e == ((1 / c2, F(0)), (2 * c2 + 1 / c2 - 2, 2 * c2))
        assert pair.exact_d_ei == (
            (F(1, 2), F(0)),
            (F(0), (4 * c2 * c2 - 3 * c2 + 1) / (2 * (c2 - 1))),
        )


def test_pair_ierk3_4stage_closed_form():
    for a22 in (F(1), F(2), F(3)):
        pair = differentiation_pair(registry("IERK3-4stage", {"a22": a22}))
        assert pair.exact_d_e == (
            (F(3), F(0), F(0)),
            (F(3, 2), F(3, 2), F(0)),
            (F(1, 3), F(4, 3), F(4, 3)),
        )
        assert pair.exact_d_ei == (
            (3 * a22 - F(1, 2), F(0), F(0)),
            (F(-1, 2), F(0), F(0)),
            (-a22, F(0), F(-1, 2)),
        )


def _expected_d_ei_ierk3_1(a55):
    diag = (5 * a55 - 2) / 4
    return (
        (diag, F(0), F(0), F(0)),
        (-35 * a55 / 64, diag, F(0), F(0)),
        (F(21, 16) - 130885 * a55 / 57344, 70715 * a55 / 32256 - F(7, 4), diag, F(0)),
        (
            F(169, 192) - 1213756279 * a55 / 659914752,
            1301752603 * a55 / 1113606144 - F(169, 144),
            67633 * a55 / 138096,
            diag,
        ),
    )


def _expected_d_ei_ierk3_2(a43):
    return (
        (F(2, 5), F(0), F(0), F(0)),
        (F(-63, 160), F(2, 5), F(0), F(0)),
        (-15 * a43 / 16 - F(128073, 143360), 5 * a43 / 4 + F(5183, 8960), F(2, 5), F(0)),
        (
            -845 * a43 / 1344 - F(6774788911, 8248934400),
            845 * a43 / 1008 + F(264498203, 1546675200),
            F(67633, 191800),
            F(2, 5),
        ),
    )


def test_pair_ierk3_1_and_2_closed_form_d_ei():
    for a55 in (F(4, 5), F(17, 10), F(1)):
        pair = differentiation_pair(registry("IERK3-1", {"a55": a55}))
        assert pair.exact_d_ei == _expected_d_ei_ierk3_1(a55)
    for a43 in (F(-3, 5), F(-1, 2), F(-2, 5)):
        pair = differentiation_pair(registry("IERK3-2", {"a43": a43}))
        assert pair.exact_d_ei == _expected_d_ei_ierk3_2(a43)
    # the two families share the explicit tableau, hence the same D_E,
    # and they agree entirely at the overlap point (a55=18/25 <-> a43=-3/5)
    p1 = differentiation_pair(registry("IERK3-1", {"a55": F(18, 25)}))
    p2 = differentiation_pair(registry("IERK3-2", {"a43": F(-3, 5)}))
    assert p1.exact_d_e == p2.exact_d_e
    assert p1.exact_d_ei == p2.exact_d_ei


def test_pair_ierk3_lobatto_d_e_facts():
    # D_E of the shared 5-stage explicit tableau: diagonal entries are the
    # reciprocals of the explicit subdiagonal (all 4/5), so the trace is 5
    pair = differentiation_pair(registry("IERK3-1", {"a55": F(4, 5)}))
    assert all(pair.exact_d_e[k][k] == F(5, 4) for k in range(4))
    assert sum(pair.exact_d_e[k][k] for k in range(4)) == 5


def test_pair_ierk3_radau_closed_form():
    for ah in (F(1), F(4, 5), F(3, 5)):
        pair = differentiation_pair(registry("IERK3-Radau", {"ahat43": ah}))
        d_e_cols = (
            (F(5, 4), F(1135, 268), F(200, 67) - F(4986267, 2052880) / ah,
             F(114597584391147, 17436733668080) / ah - F(2528991857, 339751640)),
            (F(0), F(32000, 4489), F(18600, 4489) - F(7970976, 1719287) / ah,
             F(183194079827616, 14603264447017) / ah - F(67097015181, 5690839970)),
            (F(0), F(0), 1 / ah, F(7120971, 1267730) - F(22982641, 8493791) / ah),
            (F(0), F(0), F(0), F(7120971, 1267730)),
        )
        expected_d_e = tuple(tuple(d_e_cols[j][i] for j in range(4)) for i in range(4))
        expected_d_ei = (
            (F(1, 2), F(0), F(0), F(0)),
            (F(0), F(46711, 8978), F(0), F(0)),
            (F(0), F(10391, 4489) - F(15730338, 8596435) / ah, F(4, 5) / ah - F(1, 2), F(0)),
            (F(0), F(361524711062658, 73016322235085) / ah - F(94060069247, 14227099925),
             F(476922, 3169325) - F(91930564, 42468955) / ah, F(25314559, 6338650)),
        )
        assert pair.exact_d_e == expected_d_e
        assert pair.exact_d_ei == expected_d_ei


def test_pair_matches_matrix_formula_oracle():
    # independent route: D_E = A_E^{-1} E, D_EI = A_E^{-1} A_I E - E + I/2
    for name, params in REGISTRY_CASES:
        t = registry(name, params)
        A_I, A_E = reduced_matrices(t)
        n = t.s_implicit
        A_I = np.array(A_I, dtype=float)
        A_E = np.array(A_E, dtype=float)
        E = np.tril(np.ones((n, n)))
        d_e = np.linalg.solve(A_E, E)
        d_ei = np.linalg.solve(A_E, A_I @ E) - E + 0.5 * np.eye(n)
        pair = differentiation_pair(t)
        assert np.allclose(pair.d_e, d_e, atol=1e-12), name
        assert np.allclose(pair.d_ei, d_ei, atol=1e-12), name


def _elementwise_d(t, z):
    # the stagewise double-sum definition, written independently of the
    # matrix assembly in the package
    d = difference_coefficients(t)
    theta = doc_kernels(d).theta
    n = t.s_implicit
    out = np.zeros((n, n))
    for k in range(n):
        for l in range(k + 1):
            acc = float(theta[k][l])
            double = sum(
                float(theta[k][i]) * float(d.implicit[i][j])
                for j in range(l, k + 1)
                for i in range(j, k + 1)
            )
            acc += -z * double + z - (z / 2 if k == l else 0.0)
            out[k, l] = acc
    return out


def test_eval_d_matches_elementwise_definition():
    for name, params in REGISTRY_CASES:
        t = registry(name, params)
        pair = differentiation_pair(t)
        for z in (0.0, -0.37, -11.0):
            assert np.allclose(pair.at(z), _elementwise_d(t, z), atol=1e-12), name


def test_eval_d_examples():
    assert differentiation_pair(registry("IERK1", {"theta": 1})).at(-2.0) == pytest.approx(
        np.array([[2.0]]))
    pair = differentiation_pair(registry("IERK2-1", {"c2": 1, "a33": 1}))
    D = pair.at(-1.0)
    # diagonal of D(-1) is (1/c2, 2*c2) + (2*c2*a33 - 1/2)
    assert D[0, 0] == pytest.approx(1 + 1.5) and D[1, 1] == pytest.approx(2 + 1.5)
    assert np.allclose(pair.at(0.0), pair.d_e)


@pytest.mark.parametrize("name, params", REGISTRY_CASES + [("IERK3-1", {"a55": 0.8})])
def test_pair_d_e_is_the_kernel_matrix(name, params):
    # D_E comes from the forward substitution, not from doc_kernels
    t = registry(name, params)
    theta = doc_kernels(difference_coefficients(t)).theta
    pair = differentiation_pair(t)
    if t.exact:
        assert pair.exact_d_e == theta
    else:
        assert np.abs(pair.d_e - np.array(theta, dtype=float)).max() <= 1e-14


def test_exact_pair_entries_are_fractions():
    for name, params in REGISTRY_CASES:
        t = registry(name, params)
        if t.exact:
            pair = differentiation_pair(t)
            entries = [x for M in (pair.exact_d_e, pair.exact_d_ei) for row in M for x in row]
            assert all(type(x) is F for x in entries), name


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------

def test_certify_npd_witness_exact():
    for a22 in (1, 2, 3):
        cert = certify(registry("IERK3-4stage", {"a22": a22}))
        assert not cert.certified
        assert cert.refuted  # D(z) has a negative direction for z -> -inf
        assert cert.psd_d_e.is_psd and not cert.psd_d_ei.is_psd
        w = cert.witnesses[0]
        assert w.matrix == "D_EI" and w.order == 2
        assert w.exact == F(-1, 16)
        assert w.determinant == pytest.approx(-1 / 16, abs=1e-12)


@pytest.mark.parametrize("tol", [0.5, 0.1])
def test_rational_verdict_and_witness_ignore_tol(tol):
    cert = certify(registry("IERK3-4stage", {"a22": 2}), tol=tol)
    assert not cert.certified and cert.refuted
    assert cert.psd_d_ei.threshold == 0.0 and cert.psd_d_e.threshold == 0.0
    assert [w.as_dict() for w in cert.witnesses] == [
        {"matrix": "D_EI", "order": 2, "exact": "-1/16", "determinant": -0.0625}]


@pytest.mark.parametrize("M, is_psd, minors", [
    ([[0, 0], [0, 1]], True, [0]),  # a zero row is skipped; the minors past it vanish
    ([[1, 0, 0], [0, 0, 0], [0, 0, -1]], False, [1, 0]),
    ([[0, 0], [1, 1]], False, [0, F(-1, 4)]),  # one step past the zero minor
    ([[0, 0, 0], [0, 0, 0], [1, 0, 1]], False, [0, 0]),  # no further step divides by 0
    ([[F(1, 3), 0], [F(1, 5), F(1, 7)]], True, [F(1, 3), F(1, 21) - F(1, 100)]),
    ([[0.5, 0.0], [0.25, -1e-300]], False, [F(1, 2), F(-1e-300) / 2 - F(1, 64)]),
])
def test_sym_elimination_minors(M, is_psd, minors):
    got_psd, got = _sym_elimination(M)
    assert got_psd is is_psd
    assert [F(p, scale) for p, scale in got] == minors


def test_refuted_is_not_certified():
    # IERK2-2 at a33 = 0.3 and tol 0.5 was once both certified and refuted
    for name, params in [*REGISTRY_CASES, ("IERK2-2", {"a33": 0.3})]:
        for tol in (0.0, 1e-12, 0.5):
            cert = certify(registry(name, params), tol=tol)
            assert cert.refuted == (not cert.certified), (name, tol)


def test_certify_examples():
    assert certify(registry("IERK3-1", {"a55": 0.8})).certified
    cert = certify(registry("IERK2-Radau", {"c2": 0.9}))
    assert not cert.certified
    assert differentiation_pair(registry("IERK2-Radau", {"c2": 0.9})).d_ei[1, 1] < 0
    assert certify(registry("IERK2-1", {"c2": 1, "a33": 0.5})).certified
    assert not certify(registry("IERK2-1", {"c2": 1, "a33": 0.4})).certified


def test_certified_implies_d_of_z_psd():
    # sufficiency consistency along the stiffness range
    for name, params in REGISTRY_CASES:
        cert = certify(registry(name, params))
        if not cert.certified:
            continue
        pair = differentiation_pair(registry(name, params))
        for z in (0.0, -1e-3, -1.0, -1e3, -1e6):
            D = pair.at(z)
            me = np.linalg.eigvalsh(0.5 * (D + D.T)).min()
            scale = max(1.0, float(np.abs(D).max()))
            assert me >= -10 * 1e-12 * scale, (name, z, me)


def test_certificate_serialization_keys():
    d = certify(registry("IERK3-2", {"a43": F(-3, 5)})).as_dict()
    assert set(d) >= {"method", "params", "certified", "min_eig_DE", "min_eig_DEI",
                      "rate", "witnesses"}
    assert set(d["rate"]) == {"intercept", "slope"}


# ---------------------------------------------------------------------------
# average dissipation rate
# ---------------------------------------------------------------------------

def test_average_rate_examples():
    assert average_rate(registry("IERK1", {"theta": F(1, 2)})) == (1, 0)
    for a43 in (F(-3, 5), F(-1, 2), F(-2, 5)):
        assert average_rate(registry("IERK3-2", {"a43": a43})) == (F(5, 4), F(2, 5))
    i, s = average_rate(registry("IERK4-A1"))
    assert float(i) == pytest.approx(3.65382, abs=1e-4)
    assert float(s) == pytest.approx(5.01594, abs=1e-4)


def test_average_rate_is_trace_of_pair():
    for name, params in REGISTRY_CASES:
        t = registry(name, params)
        pair = differentiation_pair(t)
        i, s = average_rate(t)
        n = t.s_implicit
        assert float(i) == pytest.approx(np.trace(pair.d_e) / n, abs=1e-12)
        assert float(s) == pytest.approx(np.trace(pair.d_ei) / n, abs=1e-12)


# ---------------------------------------------------------------------------
# parameter scans
# ---------------------------------------------------------------------------

def test_scan_recovers_certified_window_coarse():
    res = scan_parameter("IERK3-1", "a55", 0.5, 2.0, 1e-2)
    assert len(res.certified_intervals) == 1
    lo, hi = res.certified_intervals[0]
    assert lo == pytest.approx(0.72, abs=1.01e-2)
    assert hi == pytest.approx(1.747, abs=1.01e-2)


def test_scan_skips_degenerate_values():
    res = scan_parameter("IERK2-Radau", "c2", 0.9, 1.1, 0.05)
    assert 1.0 in res.skipped
    assert res.verdicts[res.values.index(1.0)] is None


def test_scan_d_e_target():
    res = scan_parameter("IERK2-1", "c2", 0.1, 0.5, 0.05, fixed={"a33": 1.0}, target="d_e")
    # D_E turns PSD near 0.2288 regardless of a33
    lo, _ = res.certified_intervals[0]
    assert lo == pytest.approx(0.25, abs=1.01e-2)


def test_scan_rejects_unknown_target():
    with pytest.raises(ValueError):
        scan_parameter("IERK3-1", "a55", 0.5, 1.0, 0.1, target="bogus")


def test_psd_verdicts_of_an_empty_stack_are_empty():
    got = _psd_verdicts(np.zeros((0, 3, 3)), 1e-12)
    assert got.shape == (0,) and got.dtype == bool


def test_psd_verdicts_fail_non_finite_matrices():
    eye = np.eye(3)
    stack = np.array([eye, eye, eye, eye, eye])
    stack[1, 0, 0] = np.inf
    stack[2, 1, 2] = np.nan
    stack[3, 0, 2], stack[3, 2, 0] = np.inf, -np.inf
    for tol in (0.0, 1e-12, 1e-3):
        assert _psd_verdicts(stack, tol).tolist() == [True, False, False, False, True]


def test_psd_verdicts_zero_pivot_needs_a_zero_column():
    # exactly singular PSD (zero pivots with zero columns) against a zero
    # pivot whose column is not zero, first and after one elimination step
    stack = np.array([
        [[0.0, 0, 0], [0, 2, 1], [0, 1, 3]],
        [[1.0, 1, 2], [1, 1, 2], [2, 2, 4]],
        [[0.0, 1, 0], [1, 5, 0], [0, 0, 5]],
        [[1.0, 1, 0], [1, 1, 1], [0, 1, 5]],
    ])
    assert _psd_verdicts(stack, 0.0).tolist() == [True, True, False, False]


@pytest.mark.parametrize("target, calls", [("d_e", 1), ("d_ei", 1), ("certified", 2)])
def test_scan_decides_only_the_matrices_its_target_reads(monkeypatch, target, calls):
    seen = []

    def counting(M, tol):
        seen.append(M.shape)
        return _psd_verdicts(M, tol)

    monkeypatch.setattr(dissipation, "_psd_verdicts", counting)
    scan_parameter("IERK2-1", "c2", 0.1, 0.5, 0.05, fixed={"a33": 1.0}, target=target)
    assert seen == [(9, 2, 2)] * calls


def _reference_scan(family, symbol, lo, hi, step, fixed, target, tol=1e-12):
    """Point-by-point scan: registry, differentiation_pair, certify's threshold."""
    values, verdicts = [], []
    for i in range(int(math.floor((hi - lo) / step + 1.5))):
        v = lo + i * step
        values.append(v)
        try:
            pair = differentiation_pair(registry(family, {**(fixed or {}), symbol: v}))
        except (DegenerateParameters, InvalidTableau, ZeroDivisionError):
            verdicts.append(None)
            continue
        ok = {}
        for name, M in (("d_e", pair.d_e), ("d_ei", pair.d_ei)):
            min_eig = np.linalg.eigvalsh(0.5 * (M + M.T)).min()
            ok[name] = bool(min_eig >= -tol * max(1.0, np.abs(M).max()))
        ok["certified"] = ok["d_e"] and ok["d_ei"]
        verdicts.append(ok[target])
    skipped = [v for v, verdict in zip(values, verdicts) if verdict is None]
    return tuple(values), tuple(verdicts), tuple(skipped)


# Each grid crosses the family's degenerate values (listed) and both ends of
# its certified interval, where the interval is bounded.
PARITY_SCANS = [
    ("IERK2-1", "c2", -0.5, 2.25, 1e-2, {"a33": 1.0}, "certified", (0.0,)),
    ("IERK2-1", "c2", -0.5, 2.25, 1e-2, {"a33": 1}, "d_e", (0.0,)),
    ("IERK2-1", "a33", -0.5, 2.25, 1e-2, {"c2": 1}, "certified", ()),
    ("IERK2-1", "a33", -0.5, 2.25, 1e-2, {"c2": F(3, 4)}, "d_ei", ()),
    ("IERK2-1", "a33", 0.0, 1.0, 0.25, {"c2": 0}, "certified", (0.0, 0.25, 0.5, 0.75, 1.0)),
    ("IERK1", "theta", -0.5, 2.0, 1e-2, None, "certified", ()),
    ("IERK2-2", "a33", -0.5, 2.0, 1e-2, None, "certified", ()),
    ("IERK2-Radau", "c2", -0.5, 3.0, 1e-2, None, "certified", (0.0, 1.0)),
    ("IERK3-4stage", "a22", -1.0, 4.0, 5e-2, None, "certified", ()),
    ("IERK3-1", "a55", 0.5, 2.0, 5e-3, None, "certified", ()),
    ("IERK3-2", "a43", -1.0, 0.0, 5e-3, None, "certified", ()),
    ("IERK3-Radau", "ahat43", -0.4, 1.2, 5e-3, None, "certified", (0.0,)),
]


@pytest.mark.parametrize("family, symbol, lo, hi, step, fixed, target, degenerate", PARITY_SCANS)
def test_scan_matches_pointwise_reference(family, symbol, lo, hi, step, fixed, target,
                                          degenerate):
    values, verdicts, skipped = _reference_scan(family, symbol, lo, hi, step, fixed, target)
    assert skipped == degenerate
    res = scan_parameter(family, symbol, lo, hi, step, fixed=fixed, target=target)
    assert res.values == values
    assert res.verdicts == verdicts
    assert res.skipped == skipped
    assert all(type(v) is float for v in res.values)
    assert all(v is None or type(v) is bool for v in res.verdicts)


@pytest.mark.parametrize("family, symbol, lo, hi, step, fixed, target, degenerate", PARITY_SCANS)
def test_family_batch_rows_equal_registry(family, symbol, lo, hi, step, fixed, target,
                                          degenerate):
    # the batch takes fixed parameters as floats, so the reference does too
    fixed = {k: float(v) for k, v in (fixed or {}).items()}
    grid = lo + np.arange(int(math.floor((hi - lo) / step + 1.5))) * step
    A, A_hat, ok = family_batch(family, symbol, grid, fixed)
    assert A.dtype == A_hat.dtype == np.float64
    assert type(A) is type(A_hat) is np.ndarray
    for i, v in enumerate(grid.tolist()):
        try:
            _, A_ref, A_hat_ref = registry(family, {**fixed, symbol: v}).float_arrays
        except (DegenerateParameters, InvalidTableau):
            assert not ok[i], v
            continue
        assert ok[i], v
        assert (A[i] == A_ref).all() and (A_hat[i] == A_hat_ref).all(), v


@pytest.mark.parametrize("family, symbol, lo", [
    ("IERK3-1", "a55", 0.5), ("IERK3-2", "a43", -1.0), ("IERK3-Radau", "ahat43", 0.4),
    ("IERK3-4stage", "a22", -1.0), ("IERK2-1", "c2", 0.5),
])
def test_family_batch_fraction_conversions_do_not_grow_with_grid(monkeypatch, family, symbol, lo):
    fixed = {"a33": F(1, 2)} if family == "IERK2-1" else {}
    to_float = F.__float__
    count = [0]

    def counting(self):
        count[0] += 1
        return to_float(self)

    monkeypatch.setattr(F, "__float__", counting)
    counts = []
    for n in (10, 1000):
        count[0] = 0
        family_batch(family, symbol, lo + np.arange(n) * 1e-3, fixed)
        counts.append(count[0])
    assert counts[0] == counts[1]


def test_scan_rejects_bad_symbols_and_bounds():
    with pytest.raises(DegenerateParameters):
        scan_parameter("IERK3-1", "bogus", 0.5, 1.0, 0.1)
    with pytest.raises(DegenerateParameters):
        scan_parameter("IERK2-1", "c2", 0.5, 1.0, 0.1)
    with pytest.raises(DegenerateParameters):
        scan_parameter("IERK3-1", "a55", 0.5, 1.0, 0.1, fixed={"a43": 1})
    for lo, hi in ((2.0, 0.5), (math.nan, 1.0), (0.5, math.inf), (-math.inf, 1.0)):
        with pytest.raises(ValueError, match="scan bounds"):
            scan_parameter("IERK3-1", "a55", lo, hi, 0.1)
    # rejected before any array of that size exists
    with pytest.raises(ValueError, match="scan grid has"):
        scan_parameter("IERK3-1", "a55", 0.0, 1.0, 1e-12)


# ---------------------------------------------------------------------------
# minor-determinant polynomials (five exact sample points pin each polynomial
# of degree <= 4 identically)
# ---------------------------------------------------------------------------

def _lead_minor_det(M, k):
    pivot, scale = _sym_elimination(M)[1][k - 1]
    return F(pivot, scale)


def test_ierk2_1_determinant_identities():
    for c2, a33 in [(F(1), F(1)), (F(3, 4), F(2)), (F(1, 2), F(5, 4)),
                    (F(2), F(1, 3)), (F(5, 3), F(1))]:
        pair = differentiation_pair(registry("IERK2-1", {"c2": c2, "a33": a33}))
        w = c2 - 1 + 1 / (2 * c2)
        assert _lead_minor_det(pair.exact_d_e, 2) == 2 - w * w
        det = _lead_minor_det(pair.exact_d_ei, 2)
        expected = -a33 * a33 * (2 * c2 * c2 + 1) * (2 * c2 * c2 - 4 * c2 + 1) \
            - 2 * a33 * c2 + F(1, 4)
        assert det == expected


def test_ierk3_1_minor_polynomials():
    def polys(a55):
        return [
            (5 * a55 - 2) / 4,
            F(24375, 16384) * a55**2 - F(5, 4) * a55 + F(1, 4),
            -F(156124878125, 266355081216) * a55**3
            + F(4850385555625, 2130840649728) * a55**2
            - F(9210215, 4718592) * a55 + F(969, 2048),
            -F(7024871482286543654375, 5079525965637831622656) * a55**4
            + F(11933410165242198623465, 2539762982818915811328) * a55**3
            - F(26459898695651552391913, 5079525965637831622656) * a55**2
            + F(192673313809999, 82103953784832) * a55 - F(1969849, 5308416),
        ]

    for a55 in (F(4, 5), F(1), F(17, 10), F(3, 2), F(1, 2)):
        pair = differentiation_pair(registry("IERK3-1", {"a55": a55}))
        for k, expected in enumerate(polys(a55), start=1):
            assert _lead_minor_det(pair.exact_d_ei, k) == expected


def test_ierk3_2_minor_polynomials():
    def polys(a43):
        return [
            F(2, 5),
            F(2483, 20480),
            -F(1055, 8192) * a43**2 - F(2184569, 14680064) * a43
            - F(91452759, 6576668672),
            -F(14878761752461399, 499921851934310400) * a43**2
            - F(523061384625360827, 17497264817700864000) * a43
            - F(342702875992479487397, 48992341489562419200000),
        ]

    for a43 in (F(-3, 5), F(-1, 2), F(-2, 5), F(-1), F(1, 5)):
        pair = differentiation_pair(registry("IERK3-2", {"a43": a43}))
        for k, expected in enumerate(polys(a43), start=1):
            assert _lead_minor_det(pair.exact_d_ei, k) == expected
