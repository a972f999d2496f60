"""Shared fixtures and the acceptance-report summary hook."""
import os
from pathlib import Path

import numpy as np
import pytest

from sphrect import critical_constants, solve_family1, solve_family2

# pyproject's pythonpath puts src/ on sys.path for a bare `pytest`; export
# it too, for the interpreters that the CLI tests start
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)

# (number, description, passed) tuples recorded by the `criterion` fixture;
# replayed after the run so each criterion gets one visible pass/fail line
_ACCEPTANCE_RESULTS: list[tuple[int, str, bool]] = []


@pytest.fixture(scope="session")
def consts():
    return critical_constants()


@pytest.fixture(scope="session")
def sol_k2():
    """First-family solution at k = 2 (the alpha = 1/2 shape)."""
    return solve_family1(2.0)


@pytest.fixture(scope="session")
def sol2_k3():
    """Second-family solution at k = 3."""
    return solve_family2(3.0)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260815)


@pytest.fixture()
def criterion():
    """Record one acceptance-criterion outcome and assert it."""

    def record(number: int, description: str, passed: bool) -> None:
        _ACCEPTANCE_RESULTS.append((number, description, passed))
        print(f"acceptance {number:2d} [{'PASS' if passed else 'FAIL'}] {description}")
        assert passed, f"acceptance criterion {number} failed: {description}"

    return record


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, description, passed in sorted(_ACCEPTANCE_RESULTS):
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {number:2d} [{status}] {description}")
