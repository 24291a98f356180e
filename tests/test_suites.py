"""The worker pool of ``run_suite`` against its serial path."""

import pytest

from corkcalc import suites


@pytest.mark.parametrize("name", suites.SUITE_NAMES)
def test_pool_matches_serial(name):
    pooled = suites.run_suite(name, {}, jobs=2)
    assert pooled.to_dict() == suites.run_suite(name, {}, jobs=1).to_dict()


def test_pool_on_an_empty_grid():
    result = suites.run_suite("lemma-2-2", {"n_max": 0}, jobs=2)
    assert result.cases == () and result.passed


def test_pool_with_more_workers_than_cases():
    grid = {"n_max": 1, "m_max": 1}
    pooled = suites.run_suite("lemma-2-2", grid, jobs=3)
    assert len(pooled.cases) == 2
    assert pooled == suites.run_suite("lemma-2-2", grid, jobs=1)


def test_serial_path_calls_run_case_once_per_case(monkeypatch):
    calls = []
    real = suites.run_case

    def counting(name, case):
        calls.append(case)
        return real(name, case)

    monkeypatch.setattr(suites, "run_case", counting)
    grid = {"n_max": 3}
    result = suites.run_suite("cork-order", grid)
    assert len(calls) == len(suites.iter_cases("cork-order", grid)) == len(result.cases)
