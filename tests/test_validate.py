"""The built-in check suite behind `qotto validate`."""

from qotto import validate
from qotto.cli import main
from qotto.validate import CheckResult


def test_validate_passes_every_check(capsys):
    assert main(["validate"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("PASS ") for line in lines) == 8
    assert lines[-1] == "8/8 checks passed"


def test_validate_reports_a_failing_check(monkeypatch, capsys):
    def failing():
        return CheckResult("always-fails", 1.0, 0.0)

    monkeypatch.setattr(validate, "ALL_CHECKS", validate.ALL_CHECKS + (failing,))
    assert main(["validate"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "FAIL always-fails: deviation=1 tolerance=0" in lines
    assert lines[-1] == "8/9 checks passed"
