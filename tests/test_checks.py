"""The check driver: a suite that raises a library error is reported as failed, not propagated."""

import pytest

from paralens import checks
from paralens.checks import CheckResult, run_checks
from paralens.errors import CompositionError, NumericError, SpecFormatError


@pytest.mark.parametrize("error", [CompositionError, NumericError, SpecFormatError])
def test_a_suite_that_raises_is_a_failed_result(monkeypatch, error):
    def boom():
        raise error("no such lens")

    monkeypatch.setitem(checks.ALL_CHECKS, "boom", boom)
    assert run_checks(["boom"]) == [CheckResult("boom", False, 0, f"raised {error('no such lens')}")]
