"""Energy-dissipation certification for IMEX Runge-Kutta methods.

The pipeline turns a tableau into a pair of constant matrices (D_E, D_EI)
whose positive semi-definiteness (of the symmetric parts) guarantees that
every stage of the method dissipates the discrete gradient-flow energy, for
any step size. The construction goes through row-difference coefficients of
the tableaux and their triangular inverse, the orthogonal convolution
kernels. The affine family D(z) = D_E - z*D_EI collects the whole stiffness
range in the scalar variable z <= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import DegenerateParameters, InvalidTableau
from .tableau import ImexTableau, reduced_matrices, registry

#: Default z samples; D(z) is affine in z so sign changes are bracketed by
#: the extremes plus z = 0.
DEFAULT_Z_SAMPLES = (0.0, -1e-3, -1.0, -1e3, -1e6)

#: Relative eigenvalue threshold for PSD verdicts.
DEFAULT_TOL = 1e-12


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

    @property
    def s_implicit(self) -> int:
        return len(self.explicit)


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

    @property
    def s_implicit(self) -> int:
        return len(self.theta)


def doc_kernels(diff: DifferenceTableau) -> DocKernels:
    """Build the kernels by the triangular recurrence.

    The recurrence divides by the explicit subdiagonal entries, so it fails
    (InvalidTableau) when any of them vanishes.
    """
    ua = diff.explicit
    n = diff.s_implicit
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
    n = kernels.s_implicit
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

    @property
    def s_implicit(self) -> int:
        return self.d_e.shape[0]

    def at(self, z: float) -> np.ndarray:
        return self.d_e - z * self.d_ei


def differentiation_pair(t: ImexTableau) -> DifferentiationPair:
    """Assemble (D_E, D_EI) from the kernel/difference construction.

    D_E is the kernel matrix itself. D_EI accumulates the double sum of
    kernels against implicit difference coefficients, minus the summation
    matrix, plus half the identity; equivalently A_E^{-1} A_I E - E + I/2.
    Exact forms are kept alongside the float views for rational tableaux.
    """
    diff = difference_coefficients(t)
    kernels = doc_kernels(diff)
    n = diff.s_implicit
    theta, ua = kernels.theta, diff.implicit
    zero = theta[0][0] * 0
    d_ei = [[zero] * n for _ in range(n)]
    for k in range(n):
        for l in range(k + 1):
            acc = zero
            for j in range(l, k + 1):
                for i in range(j, k + 1):
                    acc = acc + theta[k][i] * ua[i][j]
            acc = acc - 1
            if l == k:
                acc = acc + Fraction(1, 2)
            d_ei[k][l] = acc
    d_e_np = np.array([[float(x) for x in row] for row in theta])
    d_ei_np = np.array([[float(x) for x in row] for row in d_ei])
    exact = t.exact
    return DifferentiationPair(
        d_e=d_e_np,
        d_ei=d_ei_np,
        exact_d_e=kernels.theta if exact else None,
        exact_d_ei=tuple(tuple(r) for r in d_ei) if exact else None,
    )


def eval_D(t: ImexTableau, z: float) -> np.ndarray:
    """The differentiation matrix at stiffness sample z (z <= 0 in practice)."""
    return differentiation_pair(t).at(z)


def _sym(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.T)


def _min_eig(M: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(_sym(M)).min())


def _psd_threshold(M: np.ndarray, tol: float) -> float:
    return tol * max(1.0, float(np.abs(M).max()))


@dataclass(frozen=True)
class PsdVerdict:
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
    is sufficient for stage-wise energy decay at any step size. When not
    certified, `refuted` says whether some sampled z <= 0 actually exhibits
    a negative direction (the criterion is sufficient only, so a failed
    check alone leaves the method undetermined).
    """

    method: str
    params: dict
    psd_d_e: PsdVerdict
    psd_d_ei: PsdVerdict
    certified: bool
    refuted: bool
    z_samples: tuple
    min_eig_by_z: tuple
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
            "z_samples": list(self.z_samples),
            "min_eig_by_z": list(self.min_eig_by_z),
            "rate": {"intercept": self.rate_intercept, "slope": self.rate_slope},
            "witnesses": [w.as_dict() for w in self.witnesses],
        }


def _exact_sym(M):
    n = len(M)
    return [[(M[i][j] + M[j][i]) * Fraction(1, 2) for j in range(n)] for i in range(n)]


def _exact_det(M):
    n = len(M)
    if n == 1:
        return M[0][0]
    # cofactor expansion; matrices here are at most 6x6
    det = M[0][0] * 0
    for j in range(n):
        minor = [[M[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = M[0][j] * _exact_det(minor)
        det = det + term if j % 2 == 0 else det - term
    return det


def _first_negative_minor(name: str, M_np: np.ndarray, M_exact, tol: float):
    S = _sym(M_np)
    thr = _psd_threshold(M_np, tol)
    for k in range(1, S.shape[0] + 1):
        det = float(np.linalg.det(S[:k, :k]))
        if det < -thr:
            exact = None
            if M_exact is not None:
                SE = _exact_sym(M_exact)
                exact = _exact_det([row[:k] for row in SE[:k]])
            return MinorWitness(matrix=name, order=k, determinant=det, exact=exact)
    return None


def certify(
    t: ImexTableau,
    tol: float = DEFAULT_TOL,
    z_samples: Sequence[float] = DEFAULT_Z_SAMPLES,
) -> DissipationCertificate:
    """Certify unconditional stage-wise energy dissipation via (D_E, D_EI).

    The verdict uses eigenvalues of the symmetric parts with a threshold
    relative to each matrix's largest entry. Minor determinants are reported
    only as witnesses for the non-PSD case.
    """
    pair = differentiation_pair(t)

    def verdict(M):
        me, thr = _min_eig(M), _psd_threshold(M, tol)
        return PsdVerdict(is_psd=me >= -thr, min_eigenvalue=me, threshold=thr)

    v_e = verdict(pair.d_e)
    v_ei = verdict(pair.d_ei)
    certified = v_e.is_psd and v_ei.is_psd
    eigs = []
    refuted = False
    for z in z_samples:
        Dz = pair.at(z)
        me = _min_eig(Dz)
        eigs.append(me)
        if me < -_psd_threshold(Dz, tol):
            refuted = True
    witnesses = []
    if not certified:
        for nm, M, ME, verdict in (
            ("D_E", pair.d_e, pair.exact_d_e, v_e),
            ("D_EI", pair.d_ei, pair.exact_d_ei, v_ei),
        ):
            if not verdict.is_psd:
                w = _first_negative_minor(nm, M, ME, tol)
                if w is not None:
                    witnesses.append(w)
    intercept, slope = average_rate(t)
    return DissipationCertificate(
        method=t.name,
        params=dict(t.params),
        psd_d_e=v_e,
        psd_d_ei=v_ei,
        certified=certified,
        refuted=refuted,
        z_samples=tuple(float(z) for z in z_samples),
        min_eig_by_z=tuple(eigs),
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
    """
    if target not in ("certified", "d_e", "d_ei"):
        raise ValueError(f"unknown scan target {target!r}")
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"scan step must be finite and positive, got {step}")
    fixed = dict(fixed or {})
    n = int(math.floor((hi - lo) / step + 1.5))
    values, verdicts, skipped = [], [], []
    for i in range(n):
        v = lo + i * step
        params = dict(fixed)
        params[symbol] = v
        try:
            t = registry(family, params)
            pair = differentiation_pair(t)
        except (DegenerateParameters, InvalidTableau, ZeroDivisionError):
            values.append(v)
            verdicts.append(None)
            skipped.append(v)
            continue
        ok_e = _min_eig(pair.d_e) >= -_psd_threshold(pair.d_e, tol)
        ok_ei = _min_eig(pair.d_ei) >= -_psd_threshold(pair.d_ei, tol)
        ok = {"certified": ok_e and ok_ei, "d_e": ok_e, "d_ei": ok_ei}[target]
        values.append(v)
        verdicts.append(bool(ok))
    intervals = []
    start = None
    for v, ok in zip(values, verdicts):
        if ok:
            if start is None:
                start = v
            end = v
        elif start is not None:
            intervals.append((start, end))
            start = None
    if start is not None:
        intervals.append((start, end))
    return ScanResult(
        family=family,
        symbol=symbol,
        values=tuple(values),
        verdicts=tuple(verdicts),
        certified_intervals=tuple(intervals),
        skipped=tuple(skipped),
    )
