"""Property-based checks (run only where hypothesis is installed)."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from ierk.dissipation import certify, scan_parameter  # noqa: E402
from ierk.tableau import registry  # noqa: E402

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
