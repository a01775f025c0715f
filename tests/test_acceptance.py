"""Acceptance battery: every criterion at its pinned configuration.

Each criterion prints one PASS/FAIL line with its measured numbers (run
pytest with -s or -v to see them) and asserts the verdict.  These are
the long tests; everything else in the suite is unit-scale.
"""

import pytest

from kglab.experiments import CRITERIA


@pytest.mark.parametrize(
    "name,criterion", [(name, fn) for name, fn, _ in CRITERIA],
    ids=[name for name, _, _ in CRITERIA],
)
def test_acceptance_criterion(name, criterion):
    ok, detail = criterion()
    status = "PASS" if ok else "FAIL"
    print(f"{status}: {name} - {detail}")
    assert ok, f"{name}: {detail}"
