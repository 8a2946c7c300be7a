"""The built-in check suite behind `qotto validate`."""

import itertools

from qotto import EnsembleSpec, experiments, validate
from qotto.cli import main
from qotto.validate import CheckResult


def test_validate_passes_every_check(capsys):
    assert main(["validate"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("PASS ") for line in lines) == 9
    assert "PASS fig67-vs-enumeration" in "\n".join(lines)
    assert lines[-1] == "9/9 checks passed"


def test_validate_reports_a_failing_check(monkeypatch, capsys):
    def failing():
        return CheckResult("always-fails", 1.0, 0.0)

    monkeypatch.setattr(validate, "ALL_CHECKS", validate.ALL_CHECKS + (failing,))
    assert main(["validate"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "FAIL always-fails: deviation=1 tolerance=0" in lines
    assert lines[-1] == "9/10 checks passed"


def _count_oracle_calls(monkeypatch):
    calls = []
    for name in ("enumeration_rows", "enumeration_log_z_and_u"):
        def counted(ens, spec, beta_points, name=name, original=getattr(validate, name)):
            calls.append((name, ens, len(beta_points)))
            return original(ens, spec, beta_points)
        monkeypatch.setattr(validate, name, counted)
    return calls


def test_fig67_check_catches_a_shifted_recursion_value(monkeypatch, skew_fig67_row):
    # fig67's columns on 4 and 10 levels to M = 4, fermions at full filling on 4: a
    # shift of 2e-8, absolute in log Z and relative in U, in one row k of one column at
    # one lambda and one corner, for every k, field, lambda and corner
    columns = [(spec, statistics, N, [M for M in ms if M <= 4])
               for spec, statistics, N, ms in experiments.fig67_columns() if N in (4, 10)]
    monkeypatch.setattr(validate, "fig67_columns", lambda: columns)
    assert validate.check_fig67_vs_enumeration().passed
    for statistics, N in (("boson", 10), ("fermion", 4), ("fermion", 10)):
        for k, field, lam, corner in itertools.product(range(1, 5), (0, 1), (0.05, 1.0), (0, 1)):
            skew_fig67_row((statistics, N, lam), k, field, corner)
            assert not validate.check_fig67_vs_enumeration().passed, (statistics, N, k, field,
                                                                      lam, corner)


class _Watched(list):
    """A recursion row's log Z or U values, noting each read of them."""

    def __init__(self, values, key, reads):
        super().__init__(values)
        self._key, self._reads = key, reads

    def __iter__(self):
        self._reads.add(self._key)
        return super().__iter__()

    def __getitem__(self, index):
        self._reads.add(self._key)
        return super().__getitem__(index)


def test_fig67_check_compares_every_ensemble_with_one_oracle_call_per_column(monkeypatch):
    reads = set()
    original = validate.recursion_rows

    def watched(ens, spec, beta_points):
        assert beta_points == experiments.FIG67_CORNERS
        return [tuple(_Watched(values, (ens.statistics, k, ens.N, spec.scale_c, field), reads)
                      for field, values in enumerate(row))
                for k, row in enumerate(original(ens, spec, beta_points), 1)]

    monkeypatch.setattr(validate, "recursion_rows", watched)
    calls = _count_oracle_calls(monkeypatch)
    result = validate.check_fig67_vs_enumeration()
    assert result.passed and result.tolerance == 1e-10
    # log Z and U of every k of every column, at both lambda: 103 ensembles
    assert reads == {(statistics, k, N, lam, field) for statistics in ("boson", "fermion")
                     for N in (3, 4, 10, 25, 50, 100, 150) for k in range(1, 9)
                     for lam in (0.05, 1.0) for field in (0, 1)
                     if statistics == "boson" or k <= N}
    assert len({key[:3] for key in reads}) == 103
    # one enumeration per (statistics, N) column, at both lambda and both corners
    assert len(calls) == len(set(calls)) == 14
    assert {(name, points) for name, _, points in calls} == {("enumeration_rows", 4)}
