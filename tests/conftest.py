"""Fixtures shared by the test modules."""

import pytest

from qotto import validate

_SHIFTS = (lambda v: v + 2e-8, lambda v: v * (1.0 + 2e-8))  # of log Z, of U


@pytest.fixture
def skew_fig67_row(monkeypatch):
    """A function that makes validate's recursion_rows shift row k's log Z (``field`` 0)
    or U (1) at one corner in one (statistics, N, lambda) column, by 2e-8: absolute in
    log Z, relative in U. Each call replaces the previous shift."""
    original = validate.recursion_rows

    def skew(column, k, field, corner):
        def skewed(ens, spec, beta_points):
            rows = [(list(log_zs), list(us)) for log_zs, us in original(ens, spec, beta_points)]
            if (ens.statistics, ens.N, spec.scale_c) == column:
                rows[k - 1][field][corner] = _SHIFTS[field](rows[k - 1][field][corner])
            return rows
        monkeypatch.setattr(validate, "recursion_rows", skewed)
    return skew
