"""Acceptance gate: every release criterion must pass within its budget.

Run with ``pytest -s tests/test_acceptance.py`` to see one line per
criterion; the same checks back the ``cstardom accept`` subcommand.
"""

import pytest

from cstardom.acceptance import CRITERIA, SELECTORS, run_acceptance, run_criterion


@pytest.mark.parametrize(
    "number", [num for num, *_ in CRITERIA], ids=[f"criterion-{num}" for num, *_ in CRITERIA]
)
def test_criterion(number):
    result = run_criterion(number)
    print(result.line())
    assert result.passed, result.details
    assert result.within_budget, (
        f"criterion {number} took {result.elapsed_s:.2f}s, budget {result.budget_s}s"
    )


def test_fast_selector_is_a_subset():
    fast = run_acceptance("fast")
    assert 0 < len(fast) < len(CRITERIA)
    assert all(result.passed for result in fast)


def test_unknown_selector_rejected():
    with pytest.raises(ValueError):
        run_acceptance("everything")
    assert SELECTORS == ("all", "fast")
