"""Acceptance criteria for the whole engine.

Criteria 1-8 run the ``verify`` suites at their default grids; criterion 9
checks the exact linear algebra against independent oracles. Each test
prints one PASS/FAIL line (run with ``pytest -s`` to see them all) and
asserts that its suite passed with the case count its grid implies, and
that its report is byte for byte the one pinned in ``REPORT_SHA256``.
``GRID_REPORT_SHA256`` pins the reports of the benchmark's larger grids,
and ``SCALED_REPORT_SHA256`` those of the scaled grids that wall times are
quoted at.
"""

import hashlib
import json
import random
import time

import pytest

from corkcalc.linalg import IntMatrix, det
from corkcalc.suites import run_suite
from test_linalg_oracles import assert_snf_matches_seed

# sha256 of each suite's report at its default grid, as ``verify -o`` writes
# it: a change that alters any certificate fails here
REPORT_SHA256 = {
    "lemma-2-2": "bb21d06efab66f3990c3ccd3d28f0f461656e48e5ad95ff3987387517c7fd8c4",
    "cork-order": "43155721a1fd945bc301798f8bac1c2f0d3713b19d62d3c334236ab2dfff3264",
    "prop-2-6": "221932f46b6ffc5c31a6d7ca758f6b292d81806c5d22c80d7dd928114447866c",
    "lemma-3-4-scripts": "7eabb1bfea9a19c7ddba0856a7dac799cd3429a46c7c8b1707fb0019ac9bd6f4",
    "move-audit": "7748eb8ca3c549f008759b4acbec3168eb99ff47051d25d06105ae5ced4d3043",
    "w-family": "1b097c76a9963c7e6a15ffb7190026818cad0cbec861d71294922d9b2c461d8a",
    "stein-framings": "1f37d35b36720cf08d875d4705cd2cc9cb9b5ca67adb253a073fa397757f3191",
    "thm-1-7-arith": "2beb1f7f7062f6bb079e47b353fea5abac42f789ea03ccf424f41e42150d1590",
}

# the same for the larger grids the benchmark runs: every cork order of
# length <= 13, the contractibility grid n <= 10, m <= 2, the deletion
# scripts and chains of length <= 7, m = 1, and W(n) for n <= 11, m = 1
GRID_REPORT_SHA256 = {
    ("cork-order", 13, None): "2acf0ce5d64db0a5de7fb8318e46e2f2c2665ddf9e021dc8b7f209f7983810a3",
    ("lemma-2-2", 10, 2): "4e3280b623253391fcef5530b46a43a2e3c708b89ae17f689b86e3fa760eb192",
    ("lemma-3-4-scripts", 7, 1): "1a0bdd1f69bb15bfd9fdcad45c721b3b2a3f60a926bcb73baa66b83caf3a7efd",
    ("w-family", 11, 1): "b720a5eca154bcbac05b6b513d584255d75f6f3decbf1c30cbc8358cebe1c810",
}

# the same for the scaled grids: W(n) for n <= 18, 24 and 30, the deletion
# scripts and chains of length <= 8, the contractibility grid n <= 12, every
# cork order of length <= 16, and the surface sum l = 20, n = 5; all with m = 1
SCALED_REPORT_SHA256 = {
    "w-family": (({"n_max": 18, "m_max": 1},
                  "ae528866b40b6dac12ac6d6c4360072d689411e15a2795ec55c1a69c35f955c7"),
                 ({"n_max": 24, "m_max": 1},
                  "5b2fb2978b95c0ab684799687660e4e6faca2acf84ce74057bf087dbb2f95b8d"),
                 ({"n_max": 30, "m_max": 1},
                  "acdbb7dc2c3e22562704d450ed16464a055f91ed860547cf8b4a31064ad3e3a0")),
    "lemma-3-4-scripts": (({"n_max": 8, "m_max": 1},
                           "3abbe069d3bc6d40848c975b9e34773b663d1912e53cdc4b482e3bc757ccb3b1"),),
    "lemma-2-2": (({"n_max": 12, "m_max": 1},
                   "4e86767dd6d83a871cf6a7c967a8a90bc007bfd838a1cf29dd235d28ae1a482c"),),
    "cork-order": (({"n_max": 16},
                    "9624b7e6f41a92af2980e7481294623af4358cf4413f32bdd8f383f6d7a24bfc"),),
    "thm-1-7-arith": (({"l": 20, "n": 5},
                       "658b4c3f2413b33b5a7af8ff568f7c47acf2e48706b238affbf8be4a48ea6f04"),),
}


def _line(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status} {name}{suffix}")
    return ok


def _gate(criterion, suite, expected_cases):
    result = run_suite(suite)
    failures = [f"{c.case}: {c.details}" for c in result.failures]
    ok = result.passed and len(result.cases) == expected_cases
    _line(f"criterion-{criterion} {suite}", ok,
          f"{len(result.cases)} cases, failures={failures[:3]}")
    assert result.passed, failures
    assert len(result.cases) == expected_cases
    assert _report_sha256(result) == REPORT_SHA256[suite]


def _report_sha256(result):
    report = json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(report.encode()).hexdigest()


@pytest.mark.parametrize("suite, n_max, m_max", sorted(GRID_REPORT_SHA256, key=str))
def test_benchmark_grid_reports_are_pinned(suite, n_max, m_max):
    result = run_suite(suite, {"n_max": n_max, "m_max": m_max})
    assert result.passed
    assert _report_sha256(result) == GRID_REPORT_SHA256[suite, n_max, m_max]


@pytest.mark.parametrize("suite", sorted(SCALED_REPORT_SHA256))
def test_scaled_grid_reports_are_pinned(suite):
    for grid, sha256 in SCALED_REPORT_SHA256[suite]:
        result = run_suite(suite, grid)
        assert result.passed, grid
        assert _report_sha256(result) == sha256, grid


def test_criterion_1_contractibility_sweep():
    # every sequence of length n <= 6, m <= 3
    start = time.monotonic()
    _gate(1, "lemma-2-2", 3 * sum(2 ** n for n in range(1, 7)))
    assert time.monotonic() - start < 30.0


def test_criterion_2_cork_order_tables():
    # every sequence of length n <= 8, plus the head-pattern and alternating checks
    _gate(2, "cork-order", sum(2 ** n for n in range(1, 9)) + 2)


def test_criterion_3_pairwise_family_comparison():
    # C(2,m) = exchanged D(2,m) and C(3,m) != D(3,m) for m <= 3; E(n,m)
    # contractible with separated pairs for n <= 6, m <= 3
    _gate(3, "prop-2-6", 2 * 3 + 2 * 6 * 3)


def test_criterion_4_deletion_script_replay():
    # every index of every non-constant sequence, 2 <= n <= 5, m <= 2, plus its chain
    _gate(4, "lemma-3-4-scripts", 2 * sum((2 ** n - 2) * (n + 1) for n in range(2, 6)))


def test_criterion_5_randomized_move_invariance():
    # 20 walks of 50 audited moves each
    _gate(5, "move-audit", 20)


def test_criterion_6_decorated_wheel_family():
    # per (n, m), 2 <= n <= 6, m <= 2: the base datum, and per 0 < i < n a
    # twisted blow-down and a Z obstruction
    _gate(6, "w-family", 2 * sum(1 + 2 * (n - 1) for n in range(2, 7)))


def test_criterion_7_framing_checks():
    # C(n,m) for n <= 4, m <= 3, plus the max-tb reference front
    _gate(7, "stein-framings", 4 * 3 + 1)


def test_criterion_8_surface_sum_arithmetic():
    # every pair l <= 4, n <= 5
    _gate(8, "thm-1-7-arith", 4 * 5)


# --- 9. exact linear algebra oracles ------------------------------------------------------------

def _cofactor_det(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    return sum((-1) ** j * rows[0][j]
               * _cofactor_det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j in range(n))


def test_criterion_9_linalg_oracles():
    rng = random.Random(97)
    for trial in range(1000):
        r = rng.randint(1, 8)
        c = rng.randint(1, 8)
        m = IntMatrix.from_rows([[rng.randint(-5, 5) for _ in range(c)]
                                 for _ in range(r)])
        # snf builds no U, S or V: it reads the seed's diagonal, kernel vectors
        # and sign, and the seed's U @ m @ V is S
        res = assert_snf_matches_seed(m)
        diag = res.S.diagonal()
        for a, b in zip(diag, diag[1:]):
            assert a >= 0 and (b % a == 0 if a else b == 0)
        if trial % 20 == 0:
            assert abs(det(res.U)) == 1 and abs(det(res.V)) == 1
    for _ in range(100):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        assert det(IntMatrix.from_rows(rows)) == _cofactor_det(rows)
    assert _line("criterion-9 exact linear algebra oracles", True,
                 "1000 SNF round-trips, 100 determinants")
