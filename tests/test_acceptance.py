"""Acceptance gate: every numbered criterion must pass within its budget."""

import pytest

from cone_sobolev import ValidationError
from cone_sobolev.acceptance import CRITERIA, result_line, run_criteria


@pytest.mark.parametrize("number", sorted(CRITERIA))
def test_criterion(number, capsys):
    result = CRITERIA[number]()
    line = result_line(result)
    with capsys.disabled():
        print(line, flush=True)
    assert result.number == number
    assert result.passed, f"{line}\ndetails: {result.details}"
    if result.budget is not None:
        assert result.runtime <= result.budget


def test_run_criteria_subset_order():
    results = run_criteria([2, 1])
    assert [r.number for r in results] == [2, 1]
    assert all(r.passed for r in results)


def test_unknown_criterion_is_refused_before_any_runs(monkeypatch):
    ran = []
    monkeypatch.setitem(CRITERIA, 1, lambda: ran.append(1))
    with pytest.raises(ValidationError, match="criteria must be among"):
        run_criteria([1, 99])
    assert ran == []
