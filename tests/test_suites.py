"""The worker pool of ``run_suite`` against its serial path, and the
contractibility memo against the per-case code it replaces."""

import concurrent.futures
import json

import pytest

from corkcalc import cli, datum as datum_io, families, linalg, moves, sequences, suites
from corkcalc.errors import CorkCalcError
from corkcalc.invariants import homology
from corkcalc.presentations import pi1_presentation, tietze_simplify
from corkcalc.words import Word


@pytest.mark.parametrize("name", suites.SUITE_NAMES)
def test_pool_matches_serial(name):
    pooled = suites.run_suite(name, {}, jobs=2)
    assert pooled.to_dict() == suites.run_suite(name, {}, jobs=1).to_dict()


def test_pool_matches_serial_on_the_benchmark_grid():
    grid = {"n_max": 10, "m_max": 2}
    assert suites.run_suite("lemma-2-2", grid, jobs=2) == suites.run_suite("lemma-2-2", grid)


def test_a_worker_batch_is_plain_rows():
    batch = suites.iter_cases("cork-order", {"n_max": 3})
    rows = suites._run_batch(("cork-order", batch))
    assert [type(row) for row in rows] == [tuple] * len(batch)
    assert all(list(map(type, row)) == [str, bool, str] for row in rows)
    assert rows == [(r.case, r.ok, r.details)
                    for r in (suites.run_case("cork-order", c) for c in batch)]


@pytest.mark.parametrize("name, grid", [
    ("cork-order", {"n_max": 8}),
    ("lemma-2-2", {"n_max": 6, "m_max": 3}),
], ids=["cork-order", "lemma-2-2"])
def test_pool_matches_serial_in_order(name, grid):
    serial = suites.run_suite(name, grid)
    pooled = suites.run_suite(name, grid, jobs=2)
    assert pooled == serial  # the cases tuples, so their order too
    assert all(type(c) is suites.CaseResult for c in pooled.cases)


def test_pool_on_an_empty_grid():
    # deletions need two pairs, so this grid has no cases
    result = suites.run_suite("lemma-3-4-scripts", {"n_max": 1}, jobs=2)
    assert result.cases == () and result.passed


def test_pool_with_more_workers_than_cases():
    grid = {"n_max": 1, "m_max": 1}
    pooled = suites.run_suite("lemma-2-2", grid, jobs=3)
    assert len(pooled.cases) == 2
    assert pooled == suites.run_suite("lemma-2-2", grid, jobs=1)


@pytest.fixture
def pool_sizes(monkeypatch):
    """A stand-in pool that records its size and maps in this process, so no
    test forks the workers it asks for."""
    started = []

    class InlinePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return started


def test_pool_starts_at_most_one_worker_per_case(monkeypatch, pool_sizes):
    monkeypatch.setattr(suites.os, "sched_getaffinity", lambda pid: set(range(64)),
                        raising=False)
    grid = {"n_max": 1}
    assert suites.run_suite("cork-order", grid, jobs=64) == suites.run_suite("cork-order", grid)
    assert pool_sizes == [4]
    # one case: no pool at all
    assert suites.run_suite("thm-1-7-arith", {"l": 1, "n": 1}, jobs=64).passed
    assert pool_sizes == [4]


def test_pool_starts_at_most_one_worker_per_usable_cpu(monkeypatch, pool_sizes):
    grid = {"n_max": 8}
    serial = suites.run_suite("cork-order", grid)
    monkeypatch.setattr(suites.os, "sched_getaffinity", lambda pid: {0, 3, 5},
                        raising=False)
    assert suites.run_suite("cork-order", grid, jobs=100_000) == serial
    assert suites.run_suite("cork-order", grid, jobs=2) == serial
    # without an affinity mask, the machine's CPU count, or 1 if unknown
    monkeypatch.delattr(suites.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(suites.os, "cpu_count", lambda: 5)
    assert suites.run_suite("cork-order", grid, jobs=100_000) == serial
    monkeypatch.setattr(suites.os, "cpu_count", lambda: None)
    assert suites.run_suite("cork-order", grid, jobs=100_000) == serial
    assert pool_sizes == [3, 2, 5]


def test_a_zero_grid_value_is_not_read_as_absent():
    cases = suites.iter_cases("lemma-2-2", {"n_max": 1, "m_max": 1, "budget": 0})
    assert cases == [(1, 1, "0", 0), (1, 1, "*", 0)]


@pytest.mark.parametrize("name, grid", [
    ("lemma-2-2", {"n_max": -1}),
    ("lemma-2-2", {"n_max": True, "m_max": 1}),
    ("lemma-2-2", {"n_max": "3"}),
    ("lemma-2-2", {"m_max": 1.0}),
    ("lemma-2-2", {"m_max": 0}),
    ("lemma-2-2", {"budget": -5}),
    ("lemma-2-2", {"budget": False}),
    ("thm-1-7-arith", {"l": 0}),
    ("thm-1-7-arith", {"n": 0}),
], ids=["negative-n-max", "boolean-n-max", "string-n-max", "float-m-max", "zero-m-max",
        "negative-budget", "boolean-budget", "zero-l", "zero-n"])
def test_a_library_grid_value_must_be_an_int_of_at_least_its_minimum(name, grid):
    with pytest.raises(CorkCalcError, match="must be an integer of at least"):
        suites.run_suite(name, grid)


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


def test_a_cork_order_case_checks_its_sequence_once_and_takes_one_period(monkeypatch):
    calls = []
    for name in ("period", "check_sequence"):
        def counting(x, program=getattr(sequences, name), name=name):
            calls.append(name)
            return program(x)
        monkeypatch.setattr(sequences, name, counting)
    seqs = [x for n in range(1, 9) for x in sequences.all_sequences(n)]
    for x in seqs:
        calls.clear()
        assert suites.run_case("cork-order", ("seq", x)).ok
        assert sorted(calls) == ["check_sequence", "period"], x


# --- the contractibility memo ---------------------------------------------------

@pytest.fixture
def homology_calls(monkeypatch):
    """An empty memo, and the list of data that ``suites.homology`` is called on
    (the attribute the benchmark's tracer wraps)."""
    monkeypatch.setattr(suites, "_WHEEL_RESULTS", {})
    calls = []
    real = suites.homology

    def counting(d):
        calls.append(d)
        return real(d)

    monkeypatch.setattr(suites, "homology", counting)
    return calls


@pytest.mark.parametrize("change, budget", [
    ({"x": "**00"}, 10),
    ({"x": "*0*0"}, 10),
    ({"x": "0000"}, 10),
    ({"n": 5, "x": "*0000"}, 10),
    ({}, 11),
])
def test_memo_misses_on_any_content_or_budget_difference(homology_calls, change, budget):
    # the content of a wheel is its rotation class; m rides along in meta
    suites._run_contractibility((4, 1, "*000", 10))
    case = {"n": 4, "m": 1, "x": "*000"} | change
    suites._run_contractibility((case["n"], case["m"], case["x"], budget))
    assert len(homology_calls) == len(suites._WHEEL_RESULTS) == 2


def test_memo_hits_across_meta(homology_calls):
    # m lives only in meta and a rotation renames circles: one class, one result
    cases = [(4, m, x, 10_000) for m in (1, 2, 3) for x in ("*000", "0*00", "000*")]
    assert all(suites._run_contractibility(case).ok for case in cases)
    assert len(homology_calls) == 1 and list(suites._WHEEL_RESULTS) == [("*000", 10_000)]


def test_the_wheel_lookup_keeps_no_datum_alive(monkeypatch):
    import gc
    import weakref

    monkeypatch.setattr(suites, "_WHEEL_RESULTS", {})
    built = []
    real = families.build_X

    def building(*args):
        d = real(*args)
        built.append(weakref.ref(d))
        return d

    monkeypatch.setattr(families, "build_X", building)
    assert suites._run_contractibility((4, 2, "0*00", 10_000)).ok
    gc.collect()
    assert len(built) == 1 and built[0]() is None
    assert list(suites._WHEEL_RESULTS) == [("*000", 10_000)]


@pytest.fixture
def built_wheels(monkeypatch):
    """The arguments of every ``build_X`` call."""
    built = []
    real = suites.families.build_X
    monkeypatch.setattr(suites.families, "build_X",
                        lambda *args: built.append(args) or real(*args))
    return built


def test_one_run_builds_each_rotation_class_once(homology_calls, built_wheels):
    # whichever m meets a class first certifies it for every m
    assert suites.run_suite("lemma-2-2", {"n_max": 4, "m_max": 3}).passed
    classes = {sequences.least_rotation(x)[0] for n in range(1, 5)
               for x in sequences.all_sequences(n)}
    assert sorted(least for _, _, least in built_wheels) == sorted(classes)
    assert len(homology_calls) == len(classes) == 15


def test_two_budgets_on_one_class_compute_twice(homology_calls, built_wheels):
    for case in [(4, 1, "0*00", 0), (4, 2, "00*0", 1), (4, 3, "000*", 0), (4, 1, "*000", 1)]:
        suites._run_contractibility(case)
    assert built_wheels == [(4, 1, "*000"), (4, 2, "*000")]
    assert len(homology_calls) == 2
    assert list(suites._WHEEL_RESULTS) == [("*000", 0), ("*000", 1)]


def test_a_worker_batch_certifies_each_wheel_once(homology_calls):
    batch = suites.iter_cases("lemma-2-2", {"n_max": 4, "m_max": 3})[0::2]
    rows = suites._run_batch(("lemma-2-2", batch))
    assert len(rows) == len(batch) and all(ok for _, ok, _ in rows)
    classes = {(n, sequences.least_rotation(x)[0]) for n, _, x, _ in batch}
    assert len(homology_calls) == len(classes) == 11


def test_each_run_starts_from_an_empty_memo(homology_calls):
    suites.run_suite("lemma-2-2", {"n_max": 3, "m_max": 2})
    suites.run_suite("lemma-2-2", {"n_max": 2, "m_max": 2})
    assert len(homology_calls) == 9 + 5 and len(suites._WHEEL_RESULTS) == 5


def test_the_benchmark_grid_certifies_each_rotation_class_once(homology_calls, built_wheels):
    # and builds each class's wheel once, for one m
    suites.run_suite("lemma-2-2", {"n_max": 10, "m_max": 2})
    assert len(homology_calls) == len(built_wheels) == len(suites._WHEEL_RESULTS) == 261


def test_the_benchmark_grid_applies_no_wheel_rule(monkeypatch):
    # build_X records the verdict of each wheel it builds
    checks = []
    rule = datum_io._wheel_violations
    monkeypatch.setattr(datum_io, "_wheel_violations", lambda d: checks.append(d) or rule(d))
    assert suites.run_suite("lemma-2-2", {"n_max": 10, "m_max": 2}).passed
    assert checks == []


def test_the_forms_grid_applies_no_wheel_rule(monkeypatch):
    # the W(n) and Z(n) builders carry the verdict of the C(n) wheel, and
    # each twist of a wheel pair carries the flipped sequence
    checks = []
    rule = datum_io._wheel_violations
    monkeypatch.setattr(datum_io, "_wheel_violations", lambda d: checks.append(d) or rule(d))
    assert suites.run_suite("w-family", {"n_max": 11, "m_max": 1}).passed
    assert suites.run_suite("thm-1-7-arith").passed
    assert checks == []


def seed_twisted_blow_downs(n, m, i):
    """The blow-downs of the twisted case as it took them when it scanned
    every handle for the next -1 empty-word handle after each blow-down."""
    blown, taken = families.build_W_twisted(n, m, i), []
    for _ in range(i):
        target = next(h.id for h in blown.two_handles if not h.word and h.framing == -1)
        taken.append(target)
        blown = moves.blow_down(blown, target)
    return taken


def test_the_twisted_cases_blow_down_what_a_scan_per_step_finds(monkeypatch):
    taken = []
    real = suites.blow_down
    monkeypatch.setattr(suites, "blow_down", lambda d, h: taken.append(h) or real(d, h))
    twisted = 0
    for case in suites.iter_cases("w-family", {"n_max": 12, "m_max": 2}):
        taken.clear()
        assert suites.run_case("w-family", case).ok
        kind, n, m, i = case
        expected = {"base": [], "obstruction": ["z"]}.get(kind)
        if expected is None:
            expected = seed_twisted_blow_downs(n, m, i)
            assert len(expected) == i
            twisted += 1
        assert taken == expected
    assert twisted == 2 * 66


def test_the_forms_grid_builds_each_z_once(monkeypatch):
    built = []
    real = families.build_Z
    monkeypatch.setattr(families, "build_Z", lambda *args: built.append(args) or real(*args))
    assert suites.run_suite("w-family", {"n_max": 11, "m_max": 1}).passed
    assert suites.run_suite("thm-1-7-arith").passed
    assert len(built) == len(set(built)) == 55


def test_the_w_family_forms_need_no_signature(monkeypatch):
    # every W(n) form is -I, which the peel splits off to the end
    calls = []
    real = linalg.signature
    monkeypatch.setattr(linalg, "signature", lambda q: calls.append(q) or real(q))
    assert suites.run_suite("w-family", {"n_max": 11, "m_max": 1}).passed
    assert calls == []


def test_a_twist_that_exposes_too_few_spheres_fails_its_case(monkeypatch, capsys):
    # the untwisted W(n) has no -1 empty-word handle to blow down, so its b2
    # stays n(n - 1)/2
    build_W = families.build_W
    monkeypatch.setattr(suites.families, "build_W_twisted", lambda n, m, i: build_W(n, m))
    assert cli.main(["verify", "w-family", "--n-max", "3"]) == 1
    failed = {c["case"]: c["details"]
              for c in json.loads(capsys.readouterr().out)["cases"] if not c["ok"]}
    assert failed == {f"W({n},{m}) twist {i} + {i} blow-downs": f"b2={n * (n - 1) // 2}, boundary=()"
                      for m in (1, 2) for n, i in ((2, 1), (3, 1), (3, 2))}


def test_the_sweep_builds_each_least_rotation_and_renames_no_word(monkeypatch):
    # lemma-2-2 certifies the wheel of each class's least rotation as built,
    # with no relabel of a built wheel on the way
    renames = []
    real = Word.rename

    def counting(w, mapping):
        renames.append(w)
        return real(w, mapping)

    monkeypatch.setattr(Word, "rename", counting)
    result = suites.run_suite("lemma-2-2")
    assert result.passed and len(result.cases) == 378
    assert renames == []


def _unmemoized_case(name, case):
    """The per-case code without the memo: a homology SNF and a Tietze run for
    every wheel case and every E case."""
    if name == "lemma-2-2":
        n, m, x, budget = case
        cid = f"X({n},{m},{x})"
        d = families.build_X(n, m, x)
        profile = homology(d)
        if not profile.is_contractible_homology:
            return suites.CaseResult(cid, False, f"homology profile {profile}")
        _, certified = tietze_simplify(pi1_presentation(d), budget)
        if not certified:
            return suites.CaseResult(cid, False, "fundamental group not certified trivial")
        return suites.CaseResult(cid, True)
    if case[0] == "e-contractible":
        n, m = case[1]
        d = families.build_E(n, m)
        profile = homology(d)
        _, certified = tietze_simplify(pi1_presentation(d), 10_000)
        ok = profile.is_contractible_homology and certified
        return suites.CaseResult(f"E({n},{m}) contractible", ok)
    return suites.run_case(name, case)


@pytest.mark.parametrize("name, grid", [
    ("lemma-2-2", {"n_max": 6, "m_max": 3, "budget": 0}),
    ("lemma-2-2", {"n_max": 6, "m_max": 3, "budget": 1}),
    ("lemma-2-2", {"n_max": 6, "m_max": 3, "budget": 10_000}),
    ("prop-2-6", {}),
    ("lemma-2-2", {"n_max": 8, "m_max": 1, "budget": 0}),
    ("lemma-2-2", {"n_max": 8, "m_max": 1, "budget": 1}),
])
def test_memo_matches_the_unmemoized_cases(name, grid):
    expected = sorted((_unmemoized_case(name, c) for c in suites.iter_cases(name, grid)),
                      key=lambda r: r.case)
    assert suites.run_suite(name, grid).cases == tuple(expected)
    if name == "lemma-2-2":
        # a worker certifies a class with whichever m it meets first
        assert suites.run_suite(name, grid, jobs=2).cases == tuple(expected)
