"""IMEX Butcher tableaux: data model, method registry, order-condition checks.

A method couples a diagonally implicit tableau (A, b, c) for the stiff linear
term with an explicit tableau (A_hat, b_hat, c) for the nonlinear term. All
methods here have an explicit first stage, shared abscissas for both parts,
and are stiffly accurate: the weights equal the last row of each matrix, so
the final stage is the step solution.

Coefficients are stored exactly as `fractions.Fraction` whenever the method
(and its parameters) are rational; families built around sqrt(2) fall back to
binary64. Conversion to float happens only at the linear-algebra boundary.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Mapping, Optional, Union

import numpy as np

from .errors import DegenerateParameters, InvalidTableau, UnknownMethod

Scalar = Union[Fraction, float]

_SQRT2 = math.sqrt(2.0)

#: Validation tolerance for tableaux holding float coefficients.
FLOAT_TOL = 1e-12


def as_scalar(value) -> Scalar:
    """Coerce a user-supplied coefficient to Fraction (exact) or float.

    Strings are parsed exactly: "3/4" and "0.75" both give Fraction(3, 4).
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("boolean is not a coefficient")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return value
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse coefficient {value!r}") from exc
    raise TypeError(f"unsupported coefficient type {type(value).__name__}")


def _float_close(a, b):
    """|a - b| <= FLOAT_TOL * max(1, |b|), elementwise on floats or float arrays."""
    return np.abs(a - b) <= FLOAT_TOL * np.maximum(1.0, np.abs(b))


def _close(a, b, exact: bool) -> bool:
    return a == b if exact else bool(_float_close(float(a), float(b)))


@dataclass(frozen=True)
class ImexTableau:
    """Paired implicit/explicit Butcher tableaux with shared abscissas.

    `c`, `A` and `A_hat` are tuples of Fraction or float entries. The methods
    are stiffly accurate, so the weights are the last rows of `A` and `A_hat`.
    """

    name: str
    c: tuple
    A: tuple
    A_hat: tuple
    formal_order: Optional[int] = None
    params: Mapping[str, Scalar] = field(default_factory=dict, compare=False)

    def __post_init__(self):
        # ints become Fractions, so that an int-built tableau is exact throughout
        object.__setattr__(self, "c", tuple(map(as_scalar, self.c)))
        object.__setattr__(self, "A", tuple(tuple(map(as_scalar, r)) for r in self.A))
        object.__setattr__(self, "A_hat", tuple(tuple(map(as_scalar, r)) for r in self.A_hat))
        object.__setattr__(self, "params", dict(self.params))
        validate_tableau(self)

    @property
    def s(self) -> int:
        return len(self.c)

    @property
    def s_implicit(self) -> int:
        return self.s - 1

    @cached_property
    def exact(self) -> bool:
        """Every entry is a Fraction."""
        return all(isinstance(x, Fraction) for x in itertools.chain(self.c, *self.A, *self.A_hat))

    @cached_property
    def float_arrays(self):
        """(c, A, A_hat) as float ndarrays, converted once by `validate_tableau`."""
        return tuple(np.array(x, dtype=float) for x in (self.c, self.A, self.A_hat))

    @cached_property
    def outside_certified_range(self) -> bool:
        """Warning flag: `certify` does not certify this tableau.

        The tableau is still a valid Runge-Kutta method, so construction does
        not fail; the certificate is built on first read.
        """
        from .dissipation import certify

        return not certify(self).certified


def validate_tableau(t: ImexTableau) -> None:
    """Check the structural invariants, raising InvalidTableau on violation."""
    s = t.s
    if s < 2:
        raise InvalidTableau(f"{t.name}: need at least 2 stages, got {s}")
    if len(t.A) != s or len(t.A_hat) != s:
        raise InvalidTableau(f"{t.name}: matrix size does not match abscissa count")
    if any(len(row) != s for row in t.A) or any(len(row) != s for row in t.A_hat):
        raise InvalidTableau(f"{t.name}: coefficient matrices must be {s}x{s}")
    exact = t.exact
    if t.c[0] != 0:
        raise InvalidTableau(f"{t.name}: first abscissa must be 0, got {t.c[0]}")
    if not _close(t.c[-1], 1, exact):
        raise InvalidTableau(f"{t.name}: last abscissa must be 1, got {t.c[-1]}")
    for i in range(s):
        for j in range(i + 1, s):
            if t.A[i][j] != 0:
                raise InvalidTableau(f"{t.name}: implicit matrix not lower triangular at ({i},{j})")
            if t.A_hat[i][j] != 0:
                raise InvalidTableau(f"{t.name}: explicit matrix not lower triangular at ({i},{j})")
        if t.A_hat[i][i] != 0:
            raise InvalidTableau(f"{t.name}: explicit matrix must have zero diagonal at ({i},{i})")
        if not _close(sum(t.A[i][: i + 1], start=Fraction(0)), t.c[i], exact):
            raise InvalidTableau(f"{t.name}: implicit row {i} does not sum to c[{i}]")
        if not _close(sum(t.A_hat[i][:i], start=Fraction(0)), t.c[i], exact):
            raise InvalidTableau(f"{t.name}: explicit row {i} does not sum to c[{i}]")
    if any(t.A[0][j] != 0 for j in range(s)):
        raise InvalidTableau(f"{t.name}: first stage must be explicit")
    for k in range(1, s):
        if t.A_hat[k][k - 1] == 0:
            raise InvalidTableau(f"{t.name}: zero explicit subdiagonal entry at ({k},{k - 1})")
    try:
        t.float_arrays
    except OverflowError:
        raise InvalidTableau(f"{t.name}: a coefficient is too large for a float") from None


def reduced_matrices(t: ImexTableau):
    """Lower-triangular (A_I, A_E) driving the implicit stages.

    A_I drops the explicit first stage of the implicit matrix (shift both
    indices by one); A_E drops the zero diagonal of the explicit matrix
    (shift the row index only). A_E is invertible because its diagonal holds
    the nonzero explicit subdiagonal entries.
    """
    s_i = t.s_implicit
    A_I = tuple(tuple(t.A[i + 1][j + 1] for j in range(s_i)) for i in range(s_i))
    A_E = tuple(tuple(t.A_hat[i + 1][j] for j in range(s_i)) for i in range(s_i))
    return A_I, A_E


# ---------------------------------------------------------------------------
# order conditions
# ---------------------------------------------------------------------------

def _dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def _matvec(M, v):
    return [_dot(row, v) for row in M]


def _had(u, v):
    return [x * y for x, y in zip(u, v)]


@dataclass(frozen=True)
class ConditionResidual:
    name: str
    order: int
    part: str  # "implicit" | "explicit" | "coupling"
    residual: float


@dataclass(frozen=True)
class OrderReport:
    """Residuals of the classical IMEX order conditions up to order four."""

    conditions: tuple
    tol: float

    @property
    def max_residual_by_order(self) -> dict:
        out: dict = {}
        for cond in self.conditions:
            out[cond.order] = max(out.get(cond.order, 0.0), cond.residual)
        return out

    @property
    def attained_order(self) -> int:
        by_order = self.max_residual_by_order
        attained = 0
        for p in sorted(by_order):
            if by_order[p] <= self.tol:
                attained = p
            else:
                break
        return attained

    def as_dict(self) -> dict:
        return {
            "tol": self.tol,
            "attained_order": self.attained_order,
            "max_residual_by_order": {str(k): v for k, v in self.max_residual_by_order.items()},
            "conditions": [
                {"name": c.name, "order": c.order, "part": c.part, "residual": c.residual}
                for c in self.conditions
            ],
        }


def check_order_conditions(t: ImexTableau, tol: float = 1e-10) -> OrderReport:
    """Evaluate every order-1..4 condition for the IMEX pair.

    Conditions use the shared abscissa vector; names encode the defining
    contraction, e.g. "bh_Ac" is b_hat . (A c). Residuals are exact zeros
    for rational tableaux that satisfy a condition identically. Those run on
    ints over the common denominator L: an order-p value is v / L**p, and
    its residual one correctly rounded division. An overflow reads inf.
    """
    s = t.s
    exact = t.exact
    L = math.lcm(*(x.denominator for x in itertools.chain(t.c, *t.A, *t.A_hat))) if exact else 1
    # a float tableau keeps its Fractions but reads Fraction(0) as int 0: mixed products stay fast
    scaled = ((lambda row: [x.numerator * (L // x.denominator) for x in row]) if exact
              else (lambda row: [0 if type(x) is Fraction and not x else x for x in row]))
    c = scaled(t.c)
    A = [scaled(r) for r in t.A]
    Ah = [scaled(r) for r in t.A_hat]
    b, bh = A[-1], Ah[-1]
    ones = [1] * s
    c2 = _had(c, c)
    c3 = _had(c2, c)
    Ac, Ahc = _matvec(A, c), _matvec(Ah, c)
    Ac2, Ahc2 = _matvec(A, c2), _matvec(Ah, c2)
    entries = [  # (name, order p, part, value, q): the condition is value == 1/q
        ("b_1", 1, "implicit", _dot(b, ones), 1),
        ("bh_1", 1, "explicit", _dot(bh, ones), 1),
        ("b_c", 2, "implicit", _dot(b, c), 2),
        ("bh_c", 2, "explicit", _dot(bh, c), 2),
        ("b_c2", 3, "implicit", _dot(b, c2), 3),
        ("bh_c2", 3, "explicit", _dot(bh, c2), 3),
        ("b_Ac", 3, "implicit", _dot(b, Ac), 6),
        ("bh_Ahc", 3, "explicit", _dot(bh, Ahc), 6),
        ("b_Ahc", 3, "coupling", _dot(b, Ahc), 6),
        ("bh_Ac", 3, "coupling", _dot(bh, Ac), 6),
        ("b_c3", 4, "implicit", _dot(b, c3), 4),
        ("bh_c3", 4, "explicit", _dot(bh, c3), 4),
        ("b_c.Ac", 4, "implicit", _dot(b, _had(c, Ac)), 8),
        ("bh_c.Ahc", 4, "explicit", _dot(bh, _had(c, Ahc)), 8),
        ("b_c.Ahc", 4, "coupling", _dot(b, _had(c, Ahc)), 8),
        ("bh_c.Ac", 4, "coupling", _dot(bh, _had(c, Ac)), 8),
        ("b_Ac2", 4, "implicit", _dot(b, Ac2), 12),
        ("bh_Ahc2", 4, "explicit", _dot(bh, Ahc2), 12),
        ("b_Ahc2", 4, "coupling", _dot(b, Ahc2), 12),
        ("bh_Ac2", 4, "coupling", _dot(bh, Ac2), 12),
        ("b_AAc", 4, "implicit", _dot(b, _matvec(A, Ac)), 24),
        ("bh_AhAhc", 4, "explicit", _dot(bh, _matvec(Ah, Ahc)), 24),
        ("b_AhAhc", 4, "coupling", _dot(b, _matvec(Ah, Ahc)), 24),
        ("bh_AAhc", 4, "coupling", _dot(bh, _matvec(A, Ahc)), 24),
        ("bh_AhAc", 4, "coupling", _dot(bh, _matvec(Ah, Ac)), 24),
        ("b_AAhc", 4, "coupling", _dot(b, _matvec(A, Ahc)), 24),
        ("b_AhAc", 4, "coupling", _dot(b, _matvec(Ah, Ac)), 24),
        ("bh_AAc", 4, "coupling", _dot(bh, _matvec(A, Ac)), 24),
    ]

    def residual(v, p, q):
        try:
            return abs(v * q - L**p) / (q * L**p) if exact else abs(float(v - Fraction(1, q)))
        except OverflowError:
            return math.inf

    conditions = tuple(
        ConditionResidual(name, order, part, residual(value, order, q))
        for name, order, part, value, q in entries
    )
    return OrderReport(conditions=conditions, tol=float(tol))


# ---------------------------------------------------------------------------
# method registry
# ---------------------------------------------------------------------------

def _f(p, q=1):
    return Fraction(p, q)


def _build_ierk1(theta):
    c = (_f(0), _f(1))
    A = ((_f(0), _f(0)), (1 - theta, theta))
    Ah = ((_f(0), _f(0)), (_f(1), _f(0)))
    return c, A, Ah


def _build_ierk2_1(c2, a33):
    if np.ndim(c2) == 0 and c2 == 0:
        raise DegenerateParameters("IERK2-1 requires c2 != 0")
    a22 = 2 * c2 * c2 * a33
    a32 = (1 - 2 * a33) / (2 * c2)
    ah32 = 1 / (2 * c2)
    z = 0 * c2 * a33
    c = (_f(0), c2, 1 + z)
    A = ((_f(0),) * 3, (c2 - a22, a22, z), (1 - ah32 + a33 * (1 - c2) / c2, a32, a33))
    Ah = ((_f(0),) * 3, (c2, z, z), (1 - ah32, ah32, z))
    return c, A, Ah


def _build_ierk2_2(a33):
    c2 = _SQRT2 / 2
    if np.ndim(a33) == 0:
        a33 = float(a33)
    c = (_f(0), c2, 1.0)
    A = (
        (_f(0),) * 3,
        (c2 - a33, a33, 0.0),
        ((_SQRT2 - 1 + (2 - _SQRT2) * a33) / _SQRT2, (1 - 2 * a33) / _SQRT2, a33),
    )
    Ah = ((_f(0),) * 3, (c2, 0.0, 0.0), ((2 - _SQRT2) / 2, _SQRT2 / 2, 0.0))
    return c, A, Ah


def _build_ierk2_radau(c2):
    if np.ndim(c2) == 0 and (c2 == 0 or c2 == 1):
        raise DegenerateParameters("IERK2-Radau requires c2 notin {0, 1}")
    a32 = 1 / (2 * (1 - c2))
    a33 = (1 - 2 * c2) / (2 * (1 - c2))
    ah32 = 1 / (2 * c2)
    z = 0 * c2
    c = (_f(0), c2, 1 + z)
    A = ((_f(0),) * 3, (z, c2, z), (z, a32, a33))
    Ah = ((_f(0),) * 3, (c2, z, z), (1 - ah32, ah32, z))
    return c, A, Ah


def _build_ierk3_4stage(a22):
    z = 0 * a22
    c = (_f(0), _f(1, 3), _f(2, 3), _f(1))
    A = (
        (_f(0),) * 4,
        (_f(1, 3) - a22, a22, z, z),
        (_f(1, 3), _f(0), _f(1, 3), _f(0)),
        (_f(1, 4), _f(0), _f(3, 4), _f(0)),
    )
    Ah = (
        (_f(0),) * 4,
        (_f(1, 3), _f(0), _f(0), _f(0)),
        (_f(0), _f(2, 3), _f(0), _f(0)),
        (_f(1, 4), _f(0), _f(3, 4), _f(0)),
    )
    return c, A, Ah


# Shared 5-stage explicit tableau of the Lobatto-type third-order families.
_EXPLICIT_5 = (
    (_f(0),) * 5,
    (_f(4, 5), _f(0), _f(0), _f(0), _f(0)),
    (_f(3, 5), _f(4, 5), _f(0), _f(0), _f(0)),
    (_f(10111, 10080), _f(-6079, 10080), _f(4, 5), _f(0), _f(0)),
    (_f(313, 840), _f(131, 360), _f(-169, 315), _f(4, 5), _f(0)),
)

_C5 = (_f(0), _f(4, 5), _f(7, 5), _f(6, 5), _f(1))


def _build_ierk3_1(a55):
    z = 0 * a55
    A = (
        (_f(0),) * 5,
        (_f(4, 5) - a55, a55, z, z, z),
        (_f(3, 5) - 5 * a55 / 16, _f(4, 5) - 11 * a55 / 16, a55, z, z),
        (
            977 * a55 / 4032 - _f(473, 10080),
            _f(18617, 10080) - 5009 * a55 / 4032,
            _f(-3, 5) + z,
            a55,
            z,
        ),
        (
            _f(313, 840) - 191 * a55 / 9590,
            _f(131, 360) - 797 * a55 / 4110,
            7087 * a55 / 14385 - _f(169, 315),
            _f(4, 5) - 876 * a55 / 685,
            a55,
        ),
    )
    c = _C5 if isinstance(a55, Fraction) else tuple(float(x) for x in _C5)
    return c, A, _EXPLICIT_5


def _build_ierk3_2(a43):
    z = 0 * a43
    A = (
        (_f(0),) * 5,
        (_f(2, 25) + z, _f(18, 25) + z, z, z, z),
        (_f(3, 8) + z, _f(61, 200) + z, _f(18, 25) + z, z, z),
        (
            3 * a43 / 4 + _f(7277, 12600),
            -7 * a43 / 4 - _f(1229, 12600),
            a43,
            _f(18, 25) + z,
            z,
        ),
        (
            _f(1030769, 2877000) + z,
            _f(276523, 1233000) + z,
            _f(-196127, 1078875) + z,
            _f(-2068, 17125) + z,
            _f(18, 25) + z,
        ),
    )
    c = _C5 if isinstance(a43, Fraction) else tuple(float(x) for x in _C5)
    return c, A, _EXPLICIT_5


def _build_ierk3_radau(ahat43):
    if np.ndim(ahat43) == 0 and ahat43 == 0:
        raise DegenerateParameters("IERK3-Radau requires ahat43 != 0")
    z = 0 * ahat43
    c = (_f(0), _f(4, 5), _f(93, 200), _f(171, 200), _f(1))
    A = (
        (_f(0),) * 5,
        (_f(0), _f(4, 5), _f(0), _f(0), _f(0)),
        (_f(0), _f(-67, 200), _f(4, 5), _f(0), _f(0)),
        (_f(0), _f(-9361649, 5132200), _f(241098, 128305), _f(4, 5), _f(0)),
        (_f(0), _f(-5309, 11055), _f(9998, 7839), _f(-766, 1287), _f(4, 5)),
    )
    ah42 = _f(9690263, 12256000) - 93 * ahat43 / 160
    ah41 = _f(171, 200) - ah42 - ahat43
    Ah = (
        (_f(0),) * 5,
        (_f(4, 5), _f(0), _f(0), _f(0), _f(0)),
        (_f(10391, 32000), _f(4489, 32000), _f(0), _f(0), _f(0)),
        (ah41, ah42, ahat43, z, z),
        (
            _f(2053, 11066),
            _f(3785983, 24466926),
            _f(20893310, 43373187),
            _f(1267730, 7120971),
            _f(0),
        ),
    )
    if not isinstance(ahat43, Fraction):
        c = tuple(float(x) for x in c)
    return c, A, Ah


def _rows_to_matrix(c, rows):
    """Fill the first column from the row-sum condition; rows give cols >= 2."""
    s = len(c)
    M = [[_f(0)] * s for _ in range(s)]
    for k in range(1, s):
        row = rows[k]
        for j, v in enumerate(row):
            M[k][j + 1] = v
        M[k][0] = c[k] - sum(row, start=_f(0))
    return tuple(tuple(r) for r in M)


def _build_ierk4_a1():
    c = (
        _f(0),
        _f(95341769, 200000000),
        _f(292103, 800000),
        _f(59556813, 200000000),
        _f(2580667, 5000000),
        _f(150085929, 200000000),
        _f(1),
    )
    arows = [
        [],
        [_f(2400249, 2000000)],
        [_f(-173504613, 50000000), _f(2486, 625)],
        [_f(13944041, 20000000), _f(-1585409690050693626522959, 10**24), _f(1326491, 1000000)],
        [
            _f(-92214113, 200000000),
            _f(-942329, 1000000),
            _f(11063869, 10000000),
            _f(1185669331, 2000000000),
        ],
        [
            _f(-2010707, 2500000),
            _f(-151161011, 200000000),
            _f(2344693633530028154195338, 10**24),
            _f(-23680671, 40000000),
            _f(15240463, 20000000),
        ],
        [
            _f(188918701, 250000000),
            _f(-205244563, 500000000),
            _f(-463474901, 250000000),
            _f(12541381954770160599120029, 3627843526172490000000000),
            _f(-5666098495504076766418243, 2637342719402745375000000),
            _f(1339351, 2000000),
        ],
    ]
    ahrows = [
        [],
        [],
        [_f(558887, 2000000)],
        [_f(-13454127, 250000000), _f(121, 1000)],
        [
            _f(33045877519515636367149, 10**25),
            _f(32018089, 200000000),
            _f(593979, 2000000),
        ],
        [
            _f(18031311, 200000000),
            _f(983273174147729070884395, 10**25),
            _f(1177953, 10000000),
            _f(313441, 1000000),
        ],
        [
            _f(-23838287, 200000000),
            _f(31003, 160000),
            _f(952796123534851512831817, 1560502861592322600000000),
            _f(-145732093978331037774401, 338092153983867000000000),
            _f(70189993, 100000000),
        ],
    ]
    return c, _rows_to_matrix(c, arows), _rows_to_matrix(c, ahrows)


def _build_ierk4_a2():
    c = (
        _f(0),
        _f(429533, 1000000),
        _f(4785663, 10000000),
        _f(1182276, 1000000),
        _f(915703, 1000000),
        _f(7336053, 10000000),
        _f(1),
    )
    arows = [
        [],
        [_f(63137, 200000)],
        [_f(-917757, 1000000), _f(100379, 100000)],
        [_f(-1929, 1250), _f(219830108841087453607347, 2 * 10**23), _f(15281, 20000)],
        [
            _f(98637, 1000000),
            _f(196933, 1000000),
            _f(-4498694297454501655541833, 10**25),
            _f(531, 625),
        ],
        [
            _f(302663, 1000000),
            _f(5967, 125000),
            _f(150781, 1000000),
            _f(-156231, 125000),
            _f(142387, 100000),
        ],
        [
            _f(1843487, 10000000),
            _f(2298242610563399947, 4576990146963750000),
            _f(-129513, 1000000),
            _f(-820173, 2000000),
            _f(-556251214988653, 1754043394750312500),
            _f(88673, 125000),
        ],
    ]
    ahrows = [
        [],
        [],
        [_f(1017529648895428446045183, 25 * 10**23)],
        [_f(4507, 6250), _f(1025153, 2000000)],
        [
            _f(587731, 2000000),
            _f(3161854834370097094143699, 10**25),
            _f(371251, 2000000),
        ],
        [
            _f(82583, 200000),
            _f(-1415767, 10000000),
            _f(-33393, 200000),
            _f(119457, 250000),
        ],
        [
            _f(28277, 100000),
            _f(4063870960730480933, 25257881055233250000),
            _f(422441222477275261, 6239843169579000000),
            _f(-7683, 100000),
            _f(99459, 250000),
        ],
    ]
    return c, _rows_to_matrix(c, arows), _rows_to_matrix(c, ahrows)


@dataclass(frozen=True)
class MethodFamily:
    name: str
    formal_order: int
    free_symbols: tuple
    build: Callable


FAMILIES = {
    f.name: f
    for f in (
        MethodFamily("IERK1", 1, ("theta",), _build_ierk1),
        MethodFamily("IERK2-1", 2, ("c2", "a33"), _build_ierk2_1),
        MethodFamily("IERK2-2", 2, ("a33",), _build_ierk2_2),
        MethodFamily("IERK2-Radau", 2, ("c2",), _build_ierk2_radau),
        MethodFamily("IERK3-4stage", 3, ("a22",), _build_ierk3_4stage),
        MethodFamily("IERK3-1", 3, ("a55",), _build_ierk3_1),
        MethodFamily("IERK3-2", 3, ("a43",), _build_ierk3_2),
        MethodFamily("IERK3-Radau", 3, ("ahat43",), _build_ierk3_radau),
        MethodFamily("IERK4-A1", 4, (), _build_ierk4_a1),
        MethodFamily("IERK4-A2", 4, (), _build_ierk4_a2),
    )
}

METHOD_NAMES = tuple(FAMILIES)


def _family(name: str, symbols) -> MethodFamily:
    """The family `name`, once `symbols` are checked to be exactly its free symbols."""
    try:
        family = FAMILIES[name]
    except KeyError:
        raise UnknownMethod(
            f"unknown method {name!r}; available: {', '.join(METHOD_NAMES)}"
        ) from None
    missing = [p for p in family.free_symbols if p not in symbols]
    extra = [p for p in symbols if p not in family.free_symbols]
    if missing or extra:
        raise DegenerateParameters(
            f"{name} takes exactly {family.free_symbols}; missing={missing} extra={extra}"
        )
    return family


class _FloatGrid(np.ndarray):
    """A float array that meets Fraction operands as floats.

    `Fraction - ndarray` would otherwise make numpy wrap the Fraction as an
    object scalar and do every element in Python; the result is the same,
    since Fraction arithmetic with a float is float(Fraction) op float.
    """

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        inputs = [float(x) if isinstance(x, Fraction) else
                  x.view(np.ndarray) if isinstance(x, _FloatGrid) else x for x in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs).view(_FloatGrid)


def family_batch(name: str, symbol: str, values: np.ndarray, fixed: Mapping):
    """Float tableaux of a family along a 1-D array of values of one symbol.

    The family is built once, in float64 arithmetic, with `values` in place
    of `symbol` and every `fixed` parameter as a constant float array.
    Returns the stacked (n, s, s) arrays (A, A_hat) and a mask of the points
    that pass `validate_tableau`'s invariants at FLOAT_TOL with finite
    entries; the degenerate points of a family give infinities or a zero
    explicit subdiagonal, so they fail it.
    """
    if symbol in fixed:
        raise DegenerateParameters(f"{name}: {symbol} is scanned, so it cannot be fixed too")
    n = len(values)
    params = {k: np.full(n, float(as_scalar(v))).view(_FloatGrid) for k, v in fixed.items()}
    params[symbol] = np.asarray(values, dtype=float).view(_FloatGrid)
    family = _family(name, params)

    def col(x):
        return np.broadcast_to(np.asarray(x, dtype=float), n)

    with np.errstate(all="ignore"):
        c, A, Ah = family.build(*(params[k] for k in family.free_symbols))
        c = np.array([col(x) for x in c]).T
        A, Ah = (np.array([[col(x) for x in row] for row in M]).transpose(2, 0, 1) for M in (A, Ah))
        s = c.shape[-1]
        ok = np.isfinite(c).all(-1) & np.isfinite(A).all((-2, -1)) & np.isfinite(Ah).all((-2, -1))
        ok &= (c[:, 0] == 0) & _float_close(c[:, -1], 1.0) & (A[:, 0] == 0).all(-1)
        ok &= (A[:, ~np.tri(s, dtype=bool)] == 0).all(-1)
        ok &= (Ah[:, ~np.tri(s, k=-1, dtype=bool)] == 0).all(-1)
        ok &= _float_close(A.sum(-1), c).all(-1) & _float_close(Ah.sum(-1), c).all(-1)
        ok &= (np.diagonal(Ah, -1, 1, 2) != 0).all(-1)
    return A, Ah, ok


def registry(name: str, params: Optional[Mapping] = None) -> ImexTableau:
    """Build a registry method from its family name and free parameters.

    Parameters may be ints, Fractions, exact strings ("4/5", "0.8") or
    floats; the tableau is exact unless a float sneaks in or the family is
    inherently irrational (IERK2-2 is built around sqrt(2)).
    """
    params = dict(params or {})
    family = _family(name, params)
    values = {k: as_scalar(params[k]) for k in family.free_symbols}
    try:
        c, A, Ah = family.build(*(values[k] for k in family.free_symbols))
    except ZeroDivisionError as exc:
        raise DegenerateParameters(f"{name}: {exc}") from exc
    return ImexTableau(
        name=name,
        c=c,
        A=A,
        A_hat=Ah,
        formal_order=family.formal_order,
        params=values,
    )


# ---------------------------------------------------------------------------
# tableau file format
# ---------------------------------------------------------------------------

def tableau_from_dict(obj: Mapping) -> ImexTableau:
    """Read a user-supplied method from its JSON object form.

    Expected keys: name, s, c (list), A (rows), A_hat (rows); entries are
    numbers, decimal strings, or "p/q" rational strings. Weight vectors are
    taken from the last rows (stiffly accurate convention).
    """
    try:
        name = str(obj["name"])
        s = int(obj["s"])
        c = [as_scalar(x) for x in obj["c"]]
        A = [[as_scalar(x) for x in row] for row in obj["A"]]
        Ah = [[as_scalar(x) for x in row] for row in obj["A_hat"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidTableau(f"malformed tableau object: {exc}") from exc
    if len(c) != s:
        raise InvalidTableau(f"{name}: declared s={s} but len(c)={len(c)}")
    return ImexTableau(name=name, c=c, A=A, A_hat=Ah)


def load_tableau(path) -> ImexTableau:
    with open(path, "r", encoding="utf-8") as fh:
        return tableau_from_dict(json.load(fh))


def tableau_to_dict(t: ImexTableau) -> dict:
    def enc(x):
        return str(x) if isinstance(x, Fraction) else float(x)

    return {
        "name": t.name,
        "s": t.s,
        "c": [enc(x) for x in t.c],
        "A": [[enc(x) for x in row] for row in t.A],
        "A_hat": [[enc(x) for x in row] for row in t.A_hat],
    }
