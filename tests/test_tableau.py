import itertools
import json
from fractions import Fraction as F

import numpy as np
import pytest

from ierk.dissipation import certify
from ierk.errors import DegenerateParameters, InvalidTableau, UnknownMethod
from ierk.tableau import (
    METHOD_NAMES,
    ImexTableau,
    check_order_conditions,
    load_tableau,
    reduced_matrices,
    registry,
    tableau_from_dict,
    tableau_to_dict,
)

from conftest import REGISTRY_CASES


def test_registry_contains_all_families():
    assert set(METHOD_NAMES) == {
        "IERK1", "IERK2-1", "IERK2-2", "IERK2-Radau", "IERK3-4stage",
        "IERK3-1", "IERK3-2", "IERK3-Radau", "IERK4-A1", "IERK4-A2",
    }


@pytest.mark.parametrize("name,params", REGISTRY_CASES)
def test_structural_invariants(name, params):
    t = registry(name, params)
    s = t.s
    assert t.c[0] == 0
    assert abs(float(t.c[-1]) - 1.0) < 1e-13
    for i in range(s):
        assert abs(float(sum(t.A[i][: i + 1]) - t.c[i])) < 1e-13
        assert abs(float(sum(t.A_hat[i][:i]) - t.c[i])) < 1e-13
        assert all(t.A[i][j] == 0 for j in range(i + 1, s))
        assert all(t.A_hat[i][j] == 0 for j in range(i, s))
    # nonzero explicit subdiagonal
    assert all(t.A_hat[k][k - 1] != 0 for k in range(1, s))


def test_exact_rational_storage():
    for name, params in REGISTRY_CASES:
        t = registry(name, params)
        # only the sqrt(2)-based family is irrational
        assert t.exact == (name != "IERK2-2")


def test_ierk1_tableau_entries():
    t = registry("IERK1", {"theta": F(1, 2)})
    assert t.A == ((F(0), F(0)), (F(1, 2), F(1, 2)))
    assert t.A_hat == ((F(0), F(0)), (F(1), F(0)))


def test_ierk2_1_closed_forms():
    t = registry("IERK2-1", {"c2": 1, "a33": 1})
    assert t.A[1][1] == 2            # a22 = 2 c2^2 a33
    assert t.A_hat[2][1] == F(1, 2)  # ahat32 = 1/(2 c2)
    assert t.A[2][1] == F(-1, 2)     # a32 = (1 - 2 a33)/(2 c2)
    assert sum(t.A[2]) == 1


def test_ierk4_a2_long_rational_coefficient():
    t = registry("IERK4-A2")
    assert t.A[3][2] == F(219830108841087453607347, 2 * 10**23)


def test_reduced_matrices_ierk1():
    A_I, A_E = reduced_matrices(registry("IERK1", {"theta": F(3, 4)}))
    assert A_I == ((F(3, 4),),)
    assert A_E == ((F(1),),)


def test_reduced_matrices_shift():
    t = registry("IERK2-2", {"a33": 0.75})
    A_I, A_E = reduced_matrices(t)
    assert A_I[0][0] == pytest.approx(0.75)
    assert A_I[1] == (t.A[2][1], t.A[2][2])
    assert A_E == ((t.A_hat[1][0], 0.0), (t.A_hat[2][0], t.A_hat[2][1]))
    assert all(A_E[k][k] != 0 for k in range(2))


def test_zero_subdiagonal_rejected():
    obj = {
        "name": "bad",
        "s": 3,
        "c": ["0", "1/2", "1"],
        "A": [["0", "0", "0"], ["1/4", "1/4", "0"], ["1/4", "1/4", "1/2"]],
        "A_hat": [["0", "0", "0"], ["1/2", "0", "0"], ["1", "0", "0"]],
    }
    with pytest.raises(InvalidTableau, match="subdiagonal"):
        tableau_from_dict(obj)


def test_registry_errors():
    with pytest.raises(UnknownMethod):
        registry("IERK9")
    with pytest.raises(DegenerateParameters):
        registry("IERK1", {})
    with pytest.raises(DegenerateParameters):
        registry("IERK1", {"theta": 1, "junk": 0})
    with pytest.raises(DegenerateParameters):
        registry("IERK2-Radau", {"c2": 1})
    with pytest.raises(DegenerateParameters):
        registry("IERK2-1", {"c2": 0, "a33": 1})
    with pytest.raises(DegenerateParameters):
        registry("IERK3-Radau", {"ahat43": 0})


def test_registry_deterministic():
    a = registry("IERK3-1", {"a55": F(4, 5)})
    b = registry("IERK3-1", {"a55": "4/5"})
    assert a == b
    assert a.A == b.A and a.A_hat == b.A_hat and a.c == b.c


def test_certified_range_warning_flag():
    assert certify(registry("IERK3-4stage", {"a22": 2})).certified is False
    assert certify(registry("IERK3-1", {"a55": 0.8})).certified is True
    assert certify(registry("IERK3-1", {"a55": 0.5})).certified is False
    assert certify(registry("IERK1", {"theta": F(1, 4)})).certified is False
    assert certify(registry("IERK2-Radau", {"c2": F(9, 10)})).certified is False
    assert certify(registry("IERK4-A1")).certified is True
    # just past the six-digit interval ends, where certify already rejects
    assert certify(registry("IERK3-1", {"a55": 1.74728})).certified is False
    assert certify(registry("IERK3-1", {"a55": 1.747275})).certified is False
    assert certify(registry("IERK3-Radau", {"ahat43": 1.05135})).certified is False
    assert certify(registry("IERK3-Radau", {"ahat43": 0.5984412})).certified is False
    assert certify(registry("IERK3-2", {"a43": -0.6333125})).certified is False


def test_certified_range_flag_certifies_once_on_first_read(monkeypatch):
    import ierk.dissipation as dissipation

    calls = []
    certify = dissipation.certify

    def counting_certify(t, *args, **kwargs):
        calls.append(t)
        return certify(t, *args, **kwargs)

    monkeypatch.setattr(dissipation, "certify", counting_certify)
    t = registry("IERK3-1", {"a55": 0.5})
    # neither building a tableau nor reading one from a file builds a certificate
    tableau_from_dict(tableau_to_dict(t))
    assert calls == []


@pytest.mark.parametrize("name,params", REGISTRY_CASES)
def test_attained_order_matches_formal(name, params):
    t = registry(name, params)
    report = check_order_conditions(t, tol=1e-10)
    if name.startswith("IERK4"):
        # third order at the strict tolerance, fourth under the looser one
        assert report.attained_order == 3
        assert check_order_conditions(t, tol=2e-6).attained_order == 4
    else:
        assert report.attained_order == t.formal_order
        # and not more: the next level has a real residual
        nxt = report.max_residual_by_order.get(t.formal_order + 1)
        assert nxt is not None and nxt > 1e-10


def test_exact_methods_have_exact_zero_residuals():
    for name, params in REGISTRY_CASES:
        t = registry(name, params)
        if not t.exact or name.startswith("IERK4"):
            continue
        report = check_order_conditions(t)
        for cond in report.conditions:
            if cond.order <= t.formal_order:
                assert cond.residual == 0.0, (name, cond.name)


def test_order_report_shape():
    report = check_order_conditions(registry("IERK3-2", {"a43": F(-1, 2)}))
    assert len(report.conditions) == 28
    by_order = {}
    by_part = {}
    for c in report.conditions:
        by_order[c.order] = by_order.get(c.order, 0) + 1
        by_part[c.part] = by_part.get(c.part, 0) + 1
    assert by_order == {1: 2, 2: 2, 3: 6, 4: 18}
    assert by_part == {"implicit": 8, "explicit": 8, "coupling": 12}
    assert set(report.max_residual_by_order) == {1, 2, 3, 4}


def test_ierk3_2_example_attains_three():
    report = check_order_conditions(registry("IERK3-2", {"a43": -0.5}))
    assert report.attained_order == 3


def test_ierk2_2_float_path_attains_two():
    report = check_order_conditions(registry("IERK2-2", {"a33": 2.0}))
    assert report.attained_order == 2
    assert report.max_residual_by_order[2] <= 1e-13


def test_json_round_trip(tmp_path):
    t = registry("IERK2-Radau", {"c2": F(3, 2)})
    obj = tableau_to_dict(t)
    t2 = tableau_from_dict(obj)
    assert t2.c == t.c and t2.A == t.A and t2.A_hat == t.A_hat
    path = tmp_path / "method.json"
    path.write_text(json.dumps(obj))
    t3 = load_tableau(path)
    assert t3.A == t.A


def test_json_accepts_decimal_and_rational_strings():
    obj = {
        "name": "crank-nicolson-imex",
        "s": 2,
        "c": [0, "1"],
        "A": [[0, 0], ["0.5", "1/2"]],
        "A_hat": [[0, 0], [1, 0]],
    }
    t = tableau_from_dict(obj)
    assert t.exact
    assert t.A[1][0] == F(1, 2) and t.A[1][1] == F(1, 2)


def test_int_entries_give_exact_fractions():
    from ierk.dissipation import differentiation_pair

    t = ImexTableau(name="x", c=(0, 1), A=((0, 0), (0, 1)), A_hat=((0, 0), (1, 0)))
    assert t.exact
    assert all(type(x) is F for x in t.c + t.A[1] + t.A_hat[1])
    pair = differentiation_pair(t)
    assert pair.exact_d_e == ((F(1),),) and pair.exact_d_ei == ((F(1, 2),),)
    assert all(type(x) is F for row in pair.exact_d_e + pair.exact_d_ei for x in row)


def _entries(t):
    return list(itertools.chain(t.c, *t.A, *t.A_hat))


def test_one_float_entry_makes_every_entry_a_float():
    mixed = ImexTableau(name="mixed", c=(0, 0.5, 1),
                        A=((0, 0, 0), (F(1, 4), 0.25, 0), (F(1, 3), F(1, 6), "1/2")),
                        A_hat=((0, 0, 0), (0.5, 0, 0), (0, 1, 0)))
    for t in (registry("IERK3-1", {"a55": 0.8}), registry("IERK2-1", {"c2": 1, "a33": 0.5}), mixed):
        assert not t.exact
        assert all(type(x) is float for x in _entries(t))
    assert mixed.A[2] == (float(F(1, 3)), float(F(1, 6)), 0.5)
    for t in (registry("IERK3-1", {"a55": F(4, 5)}), registry("IERK2-1", {"c2": 1, "a33": "1/2"})):
        assert t.exact
        assert all(type(x) is F for x in _entries(t))


def test_mixed_entry_too_large_for_a_float_is_one_line():
    # the row sum 1.0 + 10**400 - 10**400 would overflow if it mixed the two
    with pytest.raises(InvalidTableau) as info:
        ImexTableau(name="mixed", c=(0, 0.5, 1),
                    A=((0, 0, 0), (0.25, 0.25, 0), (1.0, 10**400, -10**400)),
                    A_hat=((0, 0, 0), (0.5, 0, 0), (0, 1, 0)))
    assert str(info.value) == "mixed: a coefficient is too large for a float"


def test_exact_is_computed_once(monkeypatch):
    from ierk import tableau

    t = registry("IERK3-1", {"a55": F(4, 5)})
    assert t.exact
    # a rescan would no longer recognize the entries as Fractions
    monkeypatch.setattr(tableau, "Fraction", type("NotFraction", (), {}))
    assert t.exact


def test_json_rejects_bad_row_sums():
    obj = {
        "name": "bad",
        "s": 2,
        "c": [0, 1],
        "A": [[0, 0], ["0.4", "0.5"]],
        "A_hat": [[0, 0], [1, 0]],
    }
    with pytest.raises(InvalidTableau):
        tableau_from_dict(obj)


def test_float_views_match_exact_entries():
    t = registry("IERK4-A1")
    c, A, Ah = t.float_arrays
    assert A[6, 6] == pytest.approx(float(F(1339351, 2000000)), abs=0)
    assert np.allclose(A.sum(axis=1), c, atol=1e-15)


def test_overflowing_exact_residual_reads_inf():
    report = check_order_conditions(registry("IERK1", {"theta": F(10**200)}))
    residuals = {c.name: c.residual for c in report.conditions}
    assert residuals["b_c"] == 1e200
    # theta**2 = 1e400 and theta**3 = 1e600 leave the float range
    assert residuals["b_Ac"] == residuals["b_AAc"] == float("inf")
    assert report.attained_order == 1
