"""Energy-dissipation certification for IMEX Runge-Kutta methods.

The pipeline turns a tableau into a pair of constant matrices (D_E, D_EI)
whose positive semi-definiteness (of the symmetric parts) guarantees that
every stage of the method dissipates the discrete gradient-flow energy, for
any step size. They are built from the row-difference coefficients of the
tableaux and their triangular inverse, the orthogonal convolution kernels,
here by one forward substitution. The affine family D(z) = D_E - z*D_EI
collects the whole stiffness range in the scalar variable z <= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import InvalidTableau
from .tableau import ImexTableau, family_batch, reduced_matrices

#: Relative eigenvalue threshold for the PSD verdicts of float tableaux.
DEFAULT_TOL = 1e-12

#: Largest scan grid; a scan holds O(n*s^2) floats for its n points.
MAX_SCAN_POINTS = 10**6


def _row_differences(M):
    """E^{-1} M for lower-triangular M given as nested sequences."""
    n = len(M)
    out = [list(M[0])]
    for i in range(1, n):
        out.append([M[i][j] - M[i - 1][j] for j in range(n)])
    return out


@dataclass(frozen=True)
class DifferenceTableau:
    """Row differences of the reduced matrices, indexed over implicit stages.

    implicit[i][j] holds the difference coefficient of A_I and explicit[i][j]
    the one of A_E (both equal E^{-1} applied to the reduced matrix). The
    subdiagonal explicit entries coincide with the original coefficients,
    which keeps them nonzero.
    """

    implicit: tuple
    explicit: tuple


def difference_from_reduced(A_I, A_E) -> DifferenceTableau:
    """Difference coefficients straight from reduced matrices (test hook)."""
    return DifferenceTableau(
        implicit=tuple(tuple(r) for r in _row_differences(A_I)) if A_I is not None else None,
        explicit=tuple(tuple(r) for r in _row_differences(A_E)),
    )


def difference_coefficients(t: ImexTableau) -> DifferenceTableau:
    A_I, A_E = reduced_matrices(t)
    return difference_from_reduced(A_I, A_E)


@dataclass(frozen=True)
class DocKernels:
    """Triangular inverse of the explicit difference coefficients.

    theta satisfies sum_{l=j..m} theta[m][l] * explicit[l][j] == delta_{mj};
    as a matrix it equals A_E^{-1} E with E the lower-triangular all-ones
    matrix.
    """

    theta: tuple


def doc_kernels(diff: DifferenceTableau) -> DocKernels:
    """Build the kernels by the triangular recurrence.

    The recurrence divides by the explicit subdiagonal entries, so it fails
    (InvalidTableau) when any of them vanishes.
    """
    ua = diff.explicit
    n = len(ua)
    zero = ua[0][0] * 0
    theta = [[zero] * n for _ in range(n)]
    for k in range(n):
        if ua[k][k] == 0:
            raise InvalidTableau(f"zero explicit subdiagonal at reduced index {k}")
        theta[k][k] = 1 / ua[k][k]
        for j in range(k - 1, -1, -1):
            acc = zero
            for l in range(j + 1, k + 1):
                acc = acc + theta[k][l] * ua[l][j]
            theta[k][j] = -acc / ua[j][j]
    return DocKernels(theta=tuple(tuple(r) for r in theta))


def orthogonality_defect(diff: DifferenceTableau, kernels: DocKernels) -> float:
    """Max |sum_l theta[m][l]*explicit[l][j] - delta_{mj}| over the triangle."""
    n = len(kernels.theta)
    worst = 0.0
    for m in range(n):
        for j in range(m + 1):
            acc = sum(kernels.theta[m][l] * diff.explicit[l][j] for l in range(j, m + 1))
            target = 1 if m == j else 0
            worst = max(worst, abs(float(acc - target)))
    return worst


@dataclass(frozen=True)
class DifferentiationPair:
    """Constant matrices of the affine family D(z) = D_E - z*D_EI."""

    d_e: np.ndarray
    d_ei: np.ndarray
    exact_d_e: Optional[tuple] = None
    exact_d_ei: Optional[tuple] = None

    def at(self, z) -> np.ndarray:
        """The differentiation matrix at stiffness sample z (z <= 0 in practice);
        z of shape (n, 1, 1) gives the stack of n matrices."""
        return self.d_e - z * self.d_ei


def _pair_stack(A, A_hat):
    """(D_E, D_EI) stacks of stacked (n, s, s) tableaux by one forward substitution.

    [D_E, D_EI] = A_E^{-1} [E, A_I E] - [0, E - I/2], with (A_I, A_E) the
    reduced matrices and E the lower-triangular all-ones matrix. The stacks
    are float64, or object arrays of Fractions, whose arithmetic stays exact.
    Both blocks are lower triangular, so row i solves only its columns <= i.
    """
    A_I, A_E = A[:, 1:, 1:], A_hat[:, 1:, :-1]
    n, k = A_E.shape[:2]
    zero = 0 * A_E[:, :1, :1]  # Fraction(0) on an exact stack, 0.0 on a float one
    one = zero + 1
    E = np.where(np.tri(k, dtype=bool), one, zero)
    # X[:, i] holds row i of D_E and of D_EI; A_I E sums each row of A_I from the right
    X = np.concatenate([E, A_I[..., ::-1].cumsum(-1)[..., ::-1]], -1).reshape(n, k, 2, k)
    for i in range(k):
        row = X[:, i, :, :i + 1]
        row -= (A_E[:, i, :i, None, None] * X[:, :i, :, :i + 1]).sum(1)
        row /= A_E[:, i, i, None, None]
    d_e, d_ei = X[:, :, 0], X[:, :, 1]
    d_ei -= np.where(np.eye(k, dtype=bool), one / 2, E)  # E - I/2
    return d_e, d_ei


def differentiation_pair(t: ImexTableau) -> DifferentiationPair:
    """(D_E, D_EI) of one tableau, by the substitution `scan_parameter` runs.

    D_E is the kernel matrix of `doc_kernels`; D_EI is the double sum of the
    kernels against the implicit difference coefficients, minus E, plus I/2.
    A rational tableau is solved on Fractions, and its exact forms are kept
    alongside the float views.
    """
    exact = t.exact
    A, A_hat = (np.array([M], dtype=object if exact else float) for M in (t.A, t.A_hat))
    with np.errstate(over="ignore", invalid="ignore"):  # a float overflow is refused below
        d_e, d_ei = (M[0] for M in _pair_stack(A, A_hat))
    try:
        float_d_e, float_d_ei = d_e.astype(float), d_ei.astype(float)
        if not np.isfinite((float_d_e, float_d_ei)).all():
            raise OverflowError
    except OverflowError:
        raise InvalidTableau(f"{t.name}: (D_E, D_EI) has an entry too large for a float") from None
    return DifferentiationPair(
        d_e=float_d_e,
        d_ei=float_d_ei,
        exact_d_e=tuple(map(tuple, d_e.tolist())) if exact else None,
        exact_d_ei=tuple(map(tuple, d_ei.tolist())) if exact else None,
    )


def _psd_verdicts(M: np.ndarray, tol: float) -> np.ndarray:
    """Per matrix of an (n, k, k) stack: min eig of sym(M) >= -thr = -tol*max(1, |M|max),
    decided by an unpivoted LDL^T of sym(M) + thr*I on the stack transposed to (k, k, n),
    so each update is one numpy op on contiguous n-vectors. A zero pivot passes only if
    the rest of its column is zero, and a matrix with a non-finite entry fails."""
    k = M.shape[-1]
    with np.errstate(invalid="ignore", over="ignore"):
        S = np.add(M.transpose(1, 2, 0), M.transpose(2, 1, 0), order="C") * 0.5
        ok = np.isfinite(S).all(axis=(0, 1))
        S[range(k), range(k)] += tol * np.maximum(1.0, np.abs(M).max(axis=(-2, -1)))
        for j in range(k):
            d, col = S[j, j], S[j + 1:, j]
            ok &= (d > 0) | ((d == 0) & ~col.any(axis=0))
            S[j + 1:, j + 1:] -= col[:, None] * (col / np.where(d > 0, d, np.inf))
    return ok


@dataclass(frozen=True)
class PsdVerdict:
    """A float verdict compares min_eigenvalue with -threshold; an exact one has threshold 0."""

    is_psd: bool
    min_eigenvalue: float
    threshold: float


@dataclass(frozen=True)
class MinorWitness:
    """Leading principal minor of a symmetric part with negative determinant."""

    matrix: str
    order: int
    determinant: float
    exact: Optional[Fraction] = None

    def as_dict(self) -> dict:
        out = {"matrix": self.matrix, "order": self.order, "determinant": self.determinant}
        if self.exact is not None:
            out["exact"] = str(self.exact)
        return out


@dataclass(frozen=True)
class DissipationCertificate:
    """Outcome of the unconditional-dissipation check for one tableau.

    certified means both constant matrices have PSD symmetric parts, which
    is sufficient for stage-wise energy decay at any step size. refuted is
    its negation, and means some z <= 0 has a D(z) whose symmetric part is
    not PSD: a negative direction of sym D_E is one of D(0), and one v of
    sym D_EI gives v^T sym D(z) v -> -inf as z -> -inf.
    """

    method: str
    params: dict
    psd_d_e: PsdVerdict
    psd_d_ei: PsdVerdict
    certified: bool
    refuted: bool
    rate_intercept: float
    rate_slope: float
    witnesses: tuple

    def as_dict(self) -> dict:
        return {
            "method": self.method,
            "params": {k: str(v) for k, v in self.params.items()},
            "certified": self.certified,
            "refuted": self.refuted,
            "min_eig_DE": self.psd_d_e.min_eigenvalue,
            "min_eig_DEI": self.psd_d_ei.min_eigenvalue,
            "rate": {"intercept": self.rate_intercept, "slope": self.rate_slope},
            "witnesses": [w.as_dict() for w in self.witnesses],
        }


def _sym_elimination(M):
    """(is_psd, minors) of sym(M), M a square of exact rationals (Fractions, ints
    or floats), by one fraction-free (Bareiss) elimination of the lower triangle
    of B = diag(l) (M + M^T) diag(l), l_i the lcm of row i's denominators.

    Each step divides exactly by the previous pivot, so the k-th pivot is the
    order-k leading minor of sym(M) times scale_k = prod_{i<k} 2 l_i^2. sym(M) is
    PSD when every pivot is >= 0 and a zero pivot has a zero column below it;
    that row is skipped, and the leading minors past it vanish. `minors` lists
    (pivot, scale_k) up to such a row, or one step past another zero minor.
    """
    n = len(M)
    ratios = [[x.as_integer_ratio() for x in row] for row in M]
    lcms = [math.lcm(*(d for _, d in row)) for row in ratios]
    m = [[p * (l // d) for p, d in row] for row, l in zip(ratios, lcms)]
    a = [[m[i][j] * lcms[j] + m[j][i] * lcms[i] for j in range(i + 1)] for i in range(n)]
    prev, psd, lead, scale, minors = 1, True, True, 1, []
    for k in range(n):
        p = a[k][k]
        if lead:
            scale *= 2 * lcms[k] ** 2
            minors.append((p, scale))
        if p == 0 and not any(a[i][k] for i in range(k + 1, n)):
            lead = False
            continue
        psd = psd and p > 0
        if prev == 0 or not (psd or lead):
            break
        for i in range(k + 1, n):
            row, aik = a[i], a[i][k]
            for j in range(k + 1, i + 1):
                row[j] = (p * row[j] - aik * a[j][k]) // prev
        prev = p
    return psd, minors


def _float(x) -> float:
    """The float nearest to the rational x, or +-inf where it exceeds every float."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def certify(t: ImexTableau, tol: float = DEFAULT_TOL) -> DissipationCertificate:
    """Certify unconditional stage-wise energy dissipation via (D_E, D_EI).

    A rational tableau is decided exactly by `_sym_elimination` on its exact
    pair, and tol is not read. A float tableau is decided by the eigenvalues of
    the symmetric parts against tol * max(1, |M|max), and its witness is the
    first leading minor of the pair's float values below that threshold. The
    minimum eigenvalues are reported either way.
    """
    pair = differentiation_pair(t)
    S = np.stack([pair.d_e, pair.d_ei])
    min_eig = np.linalg.eigvalsh(0.5 * (S + np.swapaxes(S, -1, -2))).min(axis=-1)
    verdicts, witnesses = [], []
    for name, M, exact, lo in (("D_E", pair.d_e, pair.exact_d_e, min_eig[0]),
                               ("D_EI", pair.d_ei, pair.exact_d_ei, min_eig[1])):
        if t.exact:
            thr, (is_psd, minors) = 0.0, _sym_elimination(exact)
        else:
            thr = tol * max(1.0, float(np.abs(M).max()))
            is_psd = bool(lo >= -thr)
            minors = () if is_psd else _sym_elimination(M.tolist())[1]
        verdicts.append(PsdVerdict(is_psd, float(lo), thr))
        for k, (p, scale) in enumerate(minors, start=1):
            if p < 0 and (value := Fraction(p, scale)) < -thr:
                witnesses.append(MinorWitness(name, k, _float(value), value if t.exact else None))
                break
    certified = verdicts[0].is_psd and verdicts[1].is_psd
    intercept, slope = average_rate(t)
    return DissipationCertificate(
        method=t.name,
        params=dict(t.params),
        psd_d_e=verdicts[0],
        psd_d_ei=verdicts[1],
        certified=certified,
        refuted=not certified,
        rate_intercept=float(intercept),
        rate_slope=float(slope),
        witnesses=tuple(witnesses),
    )


def average_rate(t: ImexTableau):
    """(intercept, slope) of the per-stage average dissipation rate.

    intercept = tr(D_E)/s_I and slope = tr(D_EI)/s_I, evaluated through the
    closed forms 1/a_hat_{k+1,k} and a_{k+1,k+1}/a_hat_{k+1,k} - 1/2. The
    rate at step size tau is intercept + slope * tau * lambda_ml_bar; the
    closer to one, the closer the method tracks the continuous dissipation.
    Exact (Fraction) values are returned for rational tableaux.
    """
    s_i = t.s_implicit
    half = Fraction(1, 2)
    intercept = sum(1 / t.A_hat[k + 1][k] for k in range(s_i))
    slope = sum(t.A[k + 1][k + 1] / t.A_hat[k + 1][k] - half for k in range(s_i))
    return intercept / s_i, slope / s_i


@dataclass(frozen=True)
class ScanResult:
    family: str
    symbol: str
    values: tuple
    verdicts: tuple  # True / False / None (None: degenerate, skipped)
    certified_intervals: tuple  # ((lo, hi), ...) at grid resolution
    skipped: tuple

    def as_dict(self) -> dict:
        return {
            "family": self.family,
            "symbol": self.symbol,
            "n_values": len(self.values),
            "certified_intervals": [list(iv) for iv in self.certified_intervals],
            "n_skipped": len(self.skipped),
        }


def scan_parameter(
    family: str,
    symbol: str,
    lo: float,
    hi: float,
    step: float,
    fixed: Optional[dict] = None,
    target: str = "certified",
    tol: float = DEFAULT_TOL,
) -> ScanResult:
    """Grid scan of one free parameter, reporting PSD verdicts per value.

    target selects the predicate: "certified" (both matrices), "d_e" or
    "d_ei" (one matrix only; useful when the other matrix does not depend on
    the scanned symbol). Interval endpoints are reported at grid resolution,
    not root-polished. Degenerate values are skipped and listed.

    The grid lo + i*step (lo <= hi) is evaluated as one float batch: the
    family is built once along it (`tableau.family_batch`), the pairs of all
    valid points come from one run of `differentiation_pair`'s forward
    substitution over the float stack, and each matrix the target reads gets
    one batched PSD verdict (`_psd_verdicts`, `certify`'s float threshold). Memory
    is O(n*s^2) for n grid points, so grids beyond MAX_SCAN_POINTS are rejected.
    """
    if target not in ("certified", "d_e", "d_ei"):
        raise ValueError(f"unknown scan target {target!r}")
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"scan step must be finite and positive, got {step}")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise ValueError(f"scan bounds must be finite with lo <= hi, got lo={lo}, hi={hi}")
    n = int(math.floor((hi - lo) / step + 1.5))
    if n > MAX_SCAN_POINTS:
        raise ValueError(f"scan grid has {n} points; at most {MAX_SCAN_POINTS} are allowed")
    grid = lo + np.arange(n) * step
    A, A_hat, valid = family_batch(family, symbol, grid, fixed or {})
    A, A_hat = A[valid], A_hat[valid]  # peak memory: drop the full stacks before the solve
    d_e, d_ei = _pair_stack(A, A_hat)
    good = np.zeros(n, dtype=bool)
    read = {"certified": (d_e, d_ei), "d_e": (d_e,), "d_ei": (d_ei,)}[target]
    good[valid] = np.logical_and.reduce([_psd_verdicts(M, tol) for M in read])
    values = grid.tolist()
    edges = np.flatnonzero(np.diff(np.concatenate([[0], good, [0]])))  # run starts, run ends
    intervals = [(values[a], values[b - 1]) for a, b in zip(edges[0::2], edges[1::2])]
    return ScanResult(
        family=family,
        symbol=symbol,
        values=tuple(values),
        verdicts=tuple(g if v else None for g, v in zip(good.tolist(), valid.tolist())),
        certified_intervals=tuple(intervals),
        skipped=tuple(v for v, ok in zip(values, valid.tolist()) if not ok),
    )
