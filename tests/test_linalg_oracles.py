"""The linear algebra, and the moves and scripts built on it, against
frozen copies of the code they replaced.

``seed_snf`` (both transforms U and V always built, each column operation
over every row, full pivot scan, divisibility scan at every pivot),
``dense_snf`` (the dense S and V that ``snf`` kept before it eliminated on
sparse rows: whole rows rebuilt and scanned, each column swap over every
row of V),
``seed_det`` (Bareiss elimination), ``seed_signature`` (rational congruence),
``seed_full_linking_matrix`` (one ``d.lk`` per entry),
``seed_exponent_matrix`` (one ``exponent_sum`` per entry) and
``seed_intersection_form`` (B^T L B entry by entry), ``seed_flip_pair``
(every 2-handle's word rebuilt at each pair twist), ``seed_cancel_1_2``
(one letter slid at a time), ``seed_rotate`` (a fresh relabeling dict
and a reduction pass per word, ``seed_rename``) and
``seed_cyclic_rotation_equal`` (a ``Word`` per rotation),
``seed_deletion_chain`` (one trace per deletion),
``seed_chain_deletion_indices`` (an ``is_constant`` test per candidate
index), ``seed_handle``, ``seed_partners``, ``seed_linking_records``
and ``seed_lk`` (a scan of the handles or of the store per call),
``seed_blow_down`` (every surviving handle rebuilt) and
``seed_drop_wheel_meta_if_touched`` (both ids of every pair built) are
kept here as oracles: ``snf`` must give the diagonal of the seeds' S, the
columns of their V at its zero diagonal slots and their sign (and the
seed's U @ m @ V must be S), identical determinants, identical inertia,
identical linking and exponent matrices, identical intersection forms,
identical twisted data, identical cancellations, identical rotations,
identical cyclic word verdicts, identical chain steps, identical chain
choices, identical datum lookups, identical blow-downs and identical kept
wheel metadata.  Every datum built from parts already in canonical order
(``datum._in_order``) must equal the one the public ``KirbyDatum`` builds
from the same parts.
"""

import random
import sys
from collections import Counter, namedtuple
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import example, given, settings, strategies as st

from corkcalc import datum, families, invariants, isomorphism, linalg, moves, scripts, suites
from corkcalc.datum import (KirbyDatum, TwoHandle, _in_order, datum_hash, exponent_matrix,
                            exponent_rows, full_linking_matrix, link_key, linking_records,
                            linking_rows, make_datum, two_handle, validate, wheel_sequence)
from corkcalc.errors import (NotBlowdownableError, NotCancellableError, NotSeparatedError,
                             NotSquareError)
from corkcalc.families import (build_C, build_Cm, build_D, build_E, build_F, build_W,
                               build_W_twisted, build_X, build_Z, build_Z_twisted,
                               dot_zero_exchange, load_elliptic_surface)
from corkcalc.invariants import intersection_form
from corkcalc.linalg import IntMatrix, det, kernel_basis, signature, snf
from corkcalc.moves import Recorder, blow_down, cork_twist_pair
from corkcalc.presentations import GroupPresentation
from corkcalc.sequences import (STAR, ZERO, all_sequences, is_constant, least_rotation,
                                pair_ids, rotation_ids, shift)
from corkcalc.words import Word, reduce_letters, single


# the seed's U @ m @ V == S, with sign = det(U) * det(V)
SeedSNF = namedtuple("SeedSNF", "U S V sign")
# the dense elimination's S, its V (None unless asked for) and sign
DenseSNF = namedtuple("DenseSNF", "S V sign")


def seed_snf(m: IntMatrix) -> SeedSNF:
    a = m.to_rows()
    R, C = m.rows, m.cols
    u = IntMatrix.identity(R).to_rows()
    v = IntMatrix.identity(C).to_rows()
    sign = 1

    def swap_rows(i, j):
        nonlocal sign
        if i != j:
            a[i], a[j] = a[j], a[i]
            u[i], u[j] = u[j], u[i]
            sign = -sign

    def swap_cols(i, j):
        nonlocal sign
        if i != j:
            for row in a:
                row[i], row[j] = row[j], row[i]
            for row in v:
                row[i], row[j] = row[j], row[i]
            sign = -sign

    def add_row(dst, src, q):
        if q:
            arow, srow = a[dst], a[src]
            for k in range(C):
                arow[k] += q * srow[k]
            urow, usrow = u[dst], u[src]
            for k in range(R):
                urow[k] += q * usrow[k]

    def add_col(dst, src, q):
        if q:
            for row in a:
                row[dst] += q * row[src]
            for row in v:
                row[dst] += q * row[src]

    def negate_row(i):
        nonlocal sign
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]
        sign = -sign

    def find_pivot(t):
        best = None
        for i in range(t, R):
            for j in range(t, C):
                val = a[i][j]
                if val != 0 and (best is None or abs(val) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        return best

    t = 0
    while t < min(R, C):
        piv = find_pivot(t)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            restart = False
            for i in range(t + 1, R):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    add_row(i, t, -q)
                    if a[i][t]:
                        swap_rows(t, i)
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, C):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    add_col(j, t, -q)
                    if a[t][j]:
                        swap_cols(t, j)
                        restart = True
                        break
            if restart:
                continue
            if any(a[i][t] for i in range(t + 1, R)):
                continue
            d = a[t][t]
            bad = None
            for i in range(t + 1, R):
                for j in range(t + 1, C):
                    if a[i][j] % d != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is not None:
                add_row(t, bad, 1)
                continue
            break
        if a[t][t] < 0:
            negate_row(t)
        t += 1

    return SeedSNF(IntMatrix.from_rows(u), IntMatrix(R, C, tuple(chain.from_iterable(a))),
                   IntMatrix.from_rows(v), sign)


def seed_signature(q: IntMatrix) -> tuple[int, int, int]:
    n = q.rows
    a = [[Fraction(q.at(i, j)) for j in range(n)] for i in range(n)]
    pos = neg = zero = 0

    def sym_add(dst, src, factor):
        for k in range(n):
            a[dst][k] += factor * a[src][k]
        for k in range(n):
            a[k][dst] += factor * a[k][src]

    def sym_swap(i, j):
        a[i], a[j] = a[j], a[i]
        for row in a:
            row[i], row[j] = row[j], row[i]

    for i in range(n):
        if a[i][i] == 0:
            j_diag = next((j for j in range(i + 1, n) if a[j][j] != 0), None)
            if j_diag is not None:
                sym_swap(i, j_diag)
            else:
                j_off = next((j for j in range(i + 1, n) if a[i][j] != 0), None)
                if j_off is None:
                    zero += 1
                    continue
                sym_add(i, j_off, Fraction(1))
        pivot = a[i][i]
        if pivot > 0:
            pos += 1
        else:
            neg += 1
        for j in range(i + 1, n):
            if a[j][i] != 0:
                sym_add(j, i, -a[j][i] / pivot)
    return pos, neg, zero


def seed_full_linking_matrix(d):
    order = tuple(d.one_handles) + d.handle_ids
    n = len(order)
    rows = [[0] * n for _ in range(n)]
    for i, h in enumerate(d.two_handles, start=len(d.one_handles)):
        rows[i][i] = h.framing
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = d.lk(order[i], order[j])
    return IntMatrix.from_rows(rows), order


def dense_snf(m: IntMatrix, *, v: bool = False) -> DenseSNF:
    a = m.to_rows()
    R, C = m.rows, m.cols
    v_rows = IntMatrix.identity(C).to_rows() if v else []
    sign = 1

    def swap_rows(i, j):
        nonlocal sign
        if i != j:
            a[i], a[j] = a[j], a[i]
            sign = -sign

    def swap_cols(i, j):
        nonlocal sign
        if i != j:
            for row in chain(a, v_rows):
                row[i], row[j] = row[j], row[i]
            sign = -sign

    def add_row(dst, src, q):
        if q:
            a[dst] = [p + q * s for p, s in zip(a[dst], a[src])]

    def add_col(dst, t, q):
        # column t is zero in S off row t
        if q:
            a[t][dst] += q * a[t][t]
            for row in v_rows:
                row[dst] += q * row[t]

    def find_pivot(t):
        best, least = None, 0
        for i in range(t, R):
            row = a[i]
            for j in range(t, C):
                val = row[j]
                if val and (best is None or abs(val) < least):
                    best, least = (i, j), abs(val)
                    if least == 1:
                        return best
        return best

    t = 0
    while t < min(R, C):
        piv = find_pivot(t)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            restart = False
            for i in range(t + 1, R):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    add_row(i, t, -q)
                    if a[i][t]:
                        swap_rows(t, i)
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, C):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    add_col(j, t, -q)
                    if a[t][j]:
                        swap_cols(t, j)
                        restart = True
                        break
            if restart:
                continue
            d = a[t][t]
            bad = None if d in (1, -1) else next(
                (i for i in range(t + 1, R) if any(x % d for x in a[i][t + 1:])), None)
            if bad is None:
                break
            add_row(t, bad, 1)
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            sign = -sign
        t += 1

    return DenseSNF(IntMatrix(R, C, tuple(chain.from_iterable(a))),
                    IntMatrix.from_rows(v_rows) if v else None, sign)


def zero_slot_columns(want) -> list[tuple[int, ...]]:
    """The columns of a seed's V at the zero diagonal slots of its S."""
    diag = want.S.diagonal()
    return [want.V.col(j) for j in range(want.S.cols) if j >= len(diag) or diag[j] == 0]


def assert_snf_reads(m, want) -> None:
    """``snf(m)`` and ``snf(m, v=True)`` give m's shape, the diagonal of a
    seed's S and its sign, and with v (only) the seed V's columns at the
    zero diagonal slots as the kernel."""
    for v, kernel in ((True, zero_slot_columns(want)), (False, None)):
        got = snf(m, v=v)
        assert ((got.rows, got.cols), got.diagonal, got.kernel, got.sign) == (
            (m.rows, m.cols), want.S.diagonal(), kernel, want.sign)


def assert_snf_matches_dense(m) -> None:
    """``snf`` reads ``dense_snf``'s diagonal, kernel vectors and sign, with
    and without V (the dense pivot sequence does not depend on V, so one
    dense run serves)."""
    assert_snf_reads(m, dense_snf(m, v=True))


def assert_snf_matches_seed(m) -> SeedSNF:
    """``snf`` reads the seed's and ``dense_snf``'s diagonal, kernel vectors
    and sign, with and without V, and the seed's U @ m @ V is S; returns
    the seed's result."""
    want = seed_snf(m)
    assert want.U.mul(m).mul(want.V) == want.S
    assert_snf_reads(m, want)
    assert_snf_matches_dense(m)
    return want


def matrices(max_rows=8, max_cols=8, lo=-5, hi=5):
    return st.integers(0, max_rows).flatmap(lambda r: st.integers(0, max_cols).flatmap(
        lambda c: st.lists(st.integers(lo, hi), min_size=r * c, max_size=r * c).map(
            lambda xs: IntMatrix(r, c, tuple(xs)))))


@given(matrices())
@settings(max_examples=1000, deadline=None)
def test_snf_matches_the_seed_on_random_matrices(m):
    assert_snf_matches_seed(m)


def test_snf_matches_the_seed_on_decorated_wheel_matrices():
    for n in range(2, 16):
        d = build_W(n, 1)
        assert_snf_matches_seed(exponent_matrix(d)[0])
        assert_snf_matches_seed(full_linking_matrix(d)[0])


def snf_inputs(monkeypatch, runs) -> tuple[set[IntMatrix], int]:
    """Every distinct matrix that ``linalg.snf`` is handed while the suite
    runs ``runs`` = [(suite, grid)] pass, read dense when it comes as sparse
    rows and a shape, and the number of calls that came as rows."""
    seen, as_rows = set(), []
    program_snf = linalg.snf

    def recording(m, shape=None, **kw):
        if shape is not None:
            as_rows.append(1)
            seen.add(IntMatrix.from_sparse(m, shape[1]))
        else:
            seen.add(m)
        return program_snf(m, shape, **kw)

    monkeypatch.setattr(linalg, "snf", recording)
    for suite, grid in runs:
        assert suites.run_suite(suite, grid).passed
    monkeypatch.undo()
    return seen, len(as_rows)


def test_snf_matches_the_seed_on_the_forms_grid(monkeypatch):
    # every distinct matrix that the benchmark's ``forms`` calls hand to snf:
    # twisted and blown-down wheels, Z data and the E8 plumbings among them;
    # homology, boundary_h1 and intersection_form hand theirs over as rows
    seen, as_rows = snf_inputs(monkeypatch, [("w-family", {"n_max": 11, "m_max": 1}),
                                             ("thm-1-7-arith", None)])
    for m in seen:
        assert_snf_matches_seed(m)
    assert len(seen) > 200 and max(m.rows for m in seen) == 77  # W(11)'s linking matrix
    assert as_rows > 200


def test_snf_matches_the_dense_seed_on_the_w_family_to_24(monkeypatch):
    seen, _ = snf_inputs(monkeypatch, [("w-family", {"n_max": 24, "m_max": 1})])
    for m in seen:
        assert_snf_matches_dense(m)
    assert len(seen) > 900 and max(m.rows for m in seen) == 324  # W(24)'s linking matrix


@pytest.mark.parametrize("rows,cols", [(0, 0), (0, 3), (3, 0)])
def test_snf_of_an_empty_shape_matches_the_seeds(rows, cols):
    m = IntMatrix.zero(rows, cols)
    want = assert_snf_matches_seed(m)
    for v in (False, True):
        got = snf([{} for _ in range(rows)], (rows, cols), v=v)
        assert ((got.rows, got.cols), got.diagonal, got.kernel, got.sign) == (
            (rows, cols), want.S.diagonal(), zero_slot_columns(want) if v else None, 1)
    assert kernel_basis([{} for _ in range(rows)], (rows, cols)) == kernel_basis(m)
    assert len(kernel_basis(m)) == cols


def sparse_rows(m: IntMatrix) -> list[dict[int, int]]:
    return [{j: x for j, x in enumerate(m.row(i)) if x} for i in range(m.rows)]


@given(matrices())
@settings(max_examples=300, deadline=None)
def test_snf_of_sparse_rows_is_snf_of_the_matrix(m):
    rows = sparse_rows(m)
    rows_before = [dict(r) for r in rows]
    for v in (False, True):
        assert snf(rows, (m.rows, m.cols), v=v) == snf(m, v=v)
    assert rows == rows_before  # the caller's rows are copied
    # zero entries may be given, and are dropped
    padded = [{**dict.fromkeys(range(m.cols), 0), **r} for r in rows]
    assert snf(padded, (m.rows, m.cols), v=True) == snf(m, v=True)


def test_snf_refuses_rows_that_do_not_fit_the_shape():
    with pytest.raises(ValueError):
        snf([{0: 1}], (2, 1))
    with pytest.raises(ValueError):
        snf([{1: 1}], (1, 1))
    with pytest.raises(ValueError):
        snf([{-1: 1}], (1, 2))
    with pytest.raises(ValueError):
        IntMatrix.from_sparse([{2: 1}], 2)


def test_kernel_basis_needs_the_transform_v():
    m = IntMatrix.from_rows([[1, 1]])
    assert snf(m).kernel is None
    assert snf(m, v=True).kernel == zero_slot_columns(assert_snf_matches_seed(m)) == [(-1, 1)]


# --- one determinant ----------------------------------------------------------------

def seed_det(m: IntMatrix) -> int:
    """Fraction-free Bareiss elimination."""
    if m.rows != m.cols:
        raise NotSquareError(f"determinant needs a square matrix, got {m.rows}x{m.cols}")
    n = m.rows
    if n == 0:
        return 1
    a = m.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot_row = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if pivot_row is None:
                return 0
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def square_matrices(max_n=8):
    entries = st.sampled_from((0, 0, 0, -3, -2, -1, 1, 2, 3))  # zero pivots, too
    return st.integers(0, max_n).flatmap(lambda n: st.lists(
        entries, min_size=n * n, max_size=n * n).map(lambda xs: IntMatrix(n, n, tuple(xs))))


@given(square_matrices(), st.booleans())
@settings(max_examples=1000, deadline=None)
def test_det_matches_the_seed_on_random_square_matrices(m, singular):
    rows = m.to_rows()
    if singular and rows:
        rows[-1] = [2 * v for v in rows[0]] if len(rows) > 1 else [0]
        m = IntMatrix.from_rows(rows)
        assert seed_det(m) == 0
    assert det(m) == seed_det(m)


def test_det_refuses_a_non_square_matrix_as_the_seed_does():
    for r, c in ((2, 3), (3, 2), (0, 1), (1, 0)):
        with pytest.raises(NotSquareError) as want:
            seed_det(IntMatrix.zero(r, c))
        with pytest.raises(NotSquareError) as got:
            det(IntMatrix.zero(r, c))
        assert str(got.value) == str(want.value)


def symmetric_matrices(max_n=8):
    def build(n):
        upper = [(i, j) for i in range(n) for j in range(i, n)]
        entries = st.sampled_from((0, 0, 0, -3, -2, -1, 1, 2, 3))
        return st.lists(entries, min_size=len(upper), max_size=len(upper)).map(
            lambda xs: IntMatrix(n, n, tuple(xs[upper.index((min(i, j), max(i, j)))]
                                             for i in range(n) for j in range(n))))
    return st.integers(0, max_n).flatmap(build)


@given(symmetric_matrices(), st.booleans(), st.booleans())
@settings(max_examples=400, deadline=None)
def test_signature_matches_the_seed_on_random_symmetric_matrices(q, zero_diagonal, singular):
    n = q.rows
    rows = q.to_rows()
    if zero_diagonal:
        for i in range(n):
            rows[i][i] = 0
    if singular and n:
        # the last index repeats the first, so the form is degenerate
        for i in range(n):
            rows[i][-1] = rows[i][0]
        rows[-1] = rows[0][:]
    q = IntMatrix.from_rows(rows)
    assert signature(q) == seed_signature(q)


def test_signature_matches_the_seed_on_surface_forms():
    for l in range(1, 9):
        q = intersection_form(load_elliptic_surface(l))
        assert signature(q) == seed_signature(q) == (2 * l - 1, 10 * l - 1, 0)


def test_signature_stays_small_on_a_long_chain():
    # a plumbing chain of -2 framings: congruence without the gcd squares the
    # entries at each pivot, and would not finish at this length
    n = 120
    q = IntMatrix(n, n, tuple(-2 if i == j else int(abs(i - j) == 1)
                              for i in range(n) for j in range(n)))
    assert signature(q) == seed_signature(q) == (0, n, 0)


def _gen_family_data():
    for n in range(1, 6):
        for m in range(1, 4):
            yield from (build_C(n, m), build_D(n, m), build_F(n, m))
            yield from (build_X(n, m, x) for x in all_sequences(n))
            for i in range(1, n):
                yield from (build_W(n, m), build_Z(n, m, i), build_Z_twisted(n, m, i),
                            build_W_twisted(n, m, i))
        yield build_Cm(n)
    for n in range(1, 7):
        for m in range(1, 4):
            yield build_E(n, m)
    for l in range(1, 4):
        yield load_elliptic_surface(l)
    yield blow_down(build_Z_twisted(4, 2, 1), "z")


def test_full_linking_matrix_matches_the_seed_on_every_family():
    count = 0
    for d in _gen_family_data():
        assert full_linking_matrix(d) == seed_full_linking_matrix(d)
        count += 1
    assert count > 300


def test_full_linking_matrix_matches_the_seed_off_the_store_rules():
    # a letter on a 2-handle's name, a letter on an unknown name, a stored
    # linking that names a dotted circle, one that names an unknown id, and
    # a self-linking: none of them is a linking number d.lk reads
    d = make_datum(["a", "b"],
                   [two_handle("h", [("a", 1), ("k", 1), ("q", -1), ("a", 1)], -1),
                    two_handle("k", [("b", -1), ("h", 1), ("h", 1)], 3)],
                   links={("h", "k"): 4, ("a", "h"): 7, ("k", "zz"): 5, ("h", "h"): 2})
    assert full_linking_matrix(d) == seed_full_linking_matrix(d)
    mat, order = full_linking_matrix(d)
    assert order == ("a", "b", "h", "k")
    assert mat.to_rows() == [[0, 0, 2, 0], [0, 0, 0, -1], [2, 0, -1, 4], [0, -1, 4, 3]]


def seed_exponent_matrix(d):
    row_ids = tuple(d.one_handles)
    entries = [h.word.exponent_sum(g) for g in row_ids for h in d.two_handles]
    return IntMatrix(len(row_ids), len(d.two_handles), tuple(entries)), row_ids, d.handle_ids


def assert_rows_match_the_seeds(d) -> None:
    """The datum's sparse rows hold no zero and, read dense, are the
    exponent and linking matrices and the seeds built from exponent sums
    and ``d.lk``."""
    ex, full = exponent_rows(d), linking_rows(d)
    for rows in (ex, full):
        assert all(x for row in rows for x in row.values())
    h = len(d.two_handles)
    assert IntMatrix.from_sparse(ex, h) == exponent_matrix(d)[0] == seed_exponent_matrix(d)[0]
    assert (IntMatrix.from_sparse(full, len(full)) == full_linking_matrix(d)[0]
            == seed_full_linking_matrix(d)[0])


def test_rows_match_the_seeds_on_the_forms_grid_and_the_wheels(monkeypatch):
    # every datum whose rows the benchmark's ``forms`` calls read, the
    # intersection-form data and W(2..15)
    read = {}
    for name in ("exponent_rows", "linking_rows"):
        def recording(d, program=getattr(invariants, name)):
            read[id(d)] = d
            return program(d)
        monkeypatch.setattr(invariants, name, recording)
    assert suites.run_suite("w-family", {"n_max": 11, "m_max": 1}).passed
    assert suites.run_suite("thm-1-7-arith").passed
    monkeypatch.undo()
    data = list(read.values()) + list(_forms_data()) + [build_W(n, 1) for n in range(2, 16)]
    for d in data:
        assert_rows_match_the_seeds(d)
    assert len(read) > 190


def test_rows_match_the_seeds_on_the_move_audit(monkeypatch):
    visited = [build() for _, build in suites._AUDIT_STARTS]

    def checked(d):
        visited.append(d)
        return validate(d)

    monkeypatch.setattr(suites, "validate", checked)  # every result of a move
    assert suites.run_suite("move-audit").passed
    for d in visited:
        assert_rows_match_the_seeds(d)
    assert len(visited) == len(suites._AUDIT_STARTS) + suites.AUDIT_WALKS * suites.AUDIT_MOVES


def test_rows_skip_a_zero_exponent_sum_and_a_zero_link():
    # h passes a and back (exponent sum 0 in a); the store is handed a 0
    h = two_handle("h", [("a", 1), ("b", -1), ("a", -1)], 0)
    k = two_handle("k", [("b", 1), ("b", 1)], -2)
    d = make_datum(["a", "b"], [h, k], links={("h", "k"): 0})
    assert d.links == ()
    assert exponent_rows(d) == [{}, {0: -1, 1: 2}]
    assert linking_rows(d) == [{}, {2: -1, 3: 2}, {1: -1}, {1: 2, 3: -2}]
    assert_rows_match_the_seeds(d)
    raw = _in_order(("a", "b"), (h, k), 0, (), ((("h", "k"), 0),))
    assert linking_rows(raw) == linking_rows(d)
    assert_rows_match_the_seeds(raw)


def test_rows_match_the_seeds_off_the_store_rules():
    # the data of test_full_linking_matrix_matches_the_seed_off_the_store_rules
    d = make_datum(["a", "b"],
                   [two_handle("h", [("a", 1), ("k", 1), ("q", -1), ("a", 1)], -1),
                    two_handle("k", [("b", -1), ("h", 1), ("h", 1)], 3)],
                   links={("h", "k"): 4, ("a", "h"): 7, ("k", "zz"): 5, ("h", "h"): 2})
    assert_rows_match_the_seeds(d)
    # a dotted circle listed twice (``validate`` refuses it): each exponent
    # row holds the sum, and the linking goes to the last one, as it did
    # when the dense matrices were filled entry by entry
    twice = make_datum(["a", "a"], [two_handle("h", [("a", 1)], 1)])
    assert exponent_rows(twice) == [{0: 1}, {0: 1}]
    assert exponent_matrix(twice)[0] == seed_exponent_matrix(twice)[0]
    assert linking_rows(twice) == [{}, {2: 1}, {1: 1, 2: 1}]


def seed_presentation_exponent_matrix(p):
    rows = [[r.exponent_sum(g) for r in p.relators] for g in sorted(p.generators)]
    return IntMatrix.from_rows(rows) if rows else IntMatrix.zero(0, len(p.relators))


def test_exponent_matrix_matches_the_seed_on_every_family():
    count = 0
    for d in _gen_family_data():
        assert exponent_matrix(d) == seed_exponent_matrix(d)
        count += 1
    assert count > 300


@st.composite
def presentations(draw):
    gens = draw(st.lists(st.sampled_from("abcdef"), unique=True, max_size=5))
    letters = st.tuples(st.sampled_from(gens or ["a"]), st.sampled_from((1, -1)))
    words = st.lists(letters, max_size=8 if gens else 0).map(lambda ls: Word(tuple(ls)))
    relators = draw(st.lists(words, max_size=6))
    return GroupPresentation(tuple(gens), tuple(relators))


@given(presentations())
@settings(max_examples=300, deadline=None)
def test_presentation_exponent_matrix_matches_the_seed(p):
    assert p.exponent_matrix() == seed_presentation_exponent_matrix(p)


def seed_intersection_form(d):
    """B^T L B entry by entry, B's columns the kernel basis, L read with d.lk."""
    basis = kernel_basis(exponent_matrix(d)[0])
    ids = d.handle_ids
    link = [[h.framing if x == h.id else d.lk(x, h.id) for h in d.two_handles] for x in ids]
    return IntMatrix(len(basis), len(basis), tuple(
        sum(v[a] * link[a][b] * w[b] for a in range(len(ids)) for b in range(len(ids)))
        for v in basis for w in basis))


def _forms_data():
    yield from (build_W(n, 1) for n in range(2, 11))
    yield from (load_elliptic_surface(l) for l in range(1, 5))
    # dotted circles with a rank-2 kernel and stored 2-handle linkings
    yield make_datum(["a", "b"],
                     [two_handle("h", [("a", 1), ("b", 1)], -1),
                      two_handle("k", [("a", 1)], 2),
                      two_handle("j", [("b", -1), ("a", -1), ("a", -1)], 0),
                      two_handle("i", [("b", 1), ("b", 1)], -3)],
                     links={("h", "k"): 2, ("h", "j"): -1, ("i", "k"): 3})


def test_intersection_form_matches_the_seed():
    ranks = []
    for d in _forms_data():
        got = intersection_form(d)
        assert got == seed_intersection_form(d)
        ranks.append(got.rows)
    assert ranks[-1] == 2 and max(ranks) == 46  # b2 of E(4)


def seed_flip_pair(d, dotted, framed):
    """``moves._flip_pair`` rebuilding the word of every 2-handle but the
    framed one, whether or not the twist touches it."""
    moves._require_generator(d, dotted)
    h0 = moves._require_handle(d, framed)
    if h0.framing != 0:
        raise NotSeparatedError(f"{framed} must have framing 0 to twist")
    if not h0.word.is_single(dotted):
        raise NotSeparatedError(f"{framed} must pass {dotted} exactly once to twist")
    sigma = h0.word.letters[0][1]

    links = {k: v for k, v in d.links if framed not in k}
    new_handles = [TwoHandle(dotted, single(framed) ** sigma, 0)]
    for e in d.two_handles:
        if e.id != framed:
            links[link_key(dotted, e.id)] = e.word.exponent_sum(dotted)
            new_word = (e.word.delete_generator(dotted)
                        * single(framed) ** d.lk(e.id, framed))
            new_handles.append(TwoHandle(e.id, new_word, e.framing))

    ones = tuple(u for u in d.one_handles if u != dotted) + (framed,)
    meta = d.meta_map
    seq = wheel_sequence(d)
    for j, sym in enumerate(seq or ""):
        if pair_ids(j, sym) == (dotted, framed):
            meta["sequence"] = seq[:j] + (ZERO if sym == STAR else STAR) + seq[j + 1:]
    return make_datum(ones, new_handles, d.three_handles, meta, links)


@pytest.fixture
def checked_flips(monkeypatch):
    """Runs every pair twist against ``seed_flip_pair``, and checks that each
    handle the twist leaves alone comes back as the same object; yields the
    counts of flips and of handles kept."""
    flip = moves._flip_pair
    counts = {"flips": 0, "kept": 0}

    def checked(d, dotted, framed):
        got = flip(d, dotted, framed)
        assert got == seed_flip_pair(d, dotted, framed)
        for e in d.two_handles:
            if (e.id != framed and dotted not in e.word.generators()
                    and not d.lk(e.id, framed)):
                assert got.handle(e.id) is e
                counts["kept"] += 1
        counts["flips"] += 1
        return got

    monkeypatch.setattr(moves, "_flip_pair", checked)
    return counts


def test_flip_pair_matches_the_seed_on_twisted_wheels(checked_flips):
    for n in range(2, 12):
        for i in range(1, n):
            build_W_twisted(n, 1, i)
            build_Z_twisted(n, 1, i)
    for n in range(1, 7):
        for x in all_sequences(n):
            dot_zero_exchange(build_X(n, 1, x))
    assert checked_flips["flips"] > 800 and checked_flips["kept"] > 7000


def test_flip_pair_matches_the_seed_off_the_wheels(checked_flips):
    # cork_twist_pair refuses a pair that another handle passes or links, so
    # its external handles pass other circles and link each other only
    d = make_datum(["a", "c"],
                   [two_handle("h", [("a", -1)], 0),
                    two_handle("e", [("c", 1), ("c", 1)], -1),
                    two_handle("f", [("c", -1)], 2)],
                   links={("e", "f"): 3})
    twisted = cork_twist_pair(d, "a", "h")
    assert twisted.one_handles == ("c", "h")
    assert twisted.handle("e") is d.handle("e") and twisted.handle("f") is d.handle("f")
    # the pair twist itself rewrites handles that pass the circle (also with
    # exponent sum 0) or link the handle, and keeps the one that does neither
    d = make_datum(["a", "c"],
                   [two_handle("h", [("a", 1)], 0),
                    two_handle("e", [("a", 1), ("c", 1), ("a", 1)], -1),
                    two_handle("f", [("a", 1), ("c", 1), ("a", -1)], 2),
                    two_handle("g", [("c", -1)], 1),
                    two_handle("k", [("c", 1)], 0)],
                   links={("e", "h"): 2, ("g", "h"): -1, ("f", "k"): 4})
    twisted = moves._flip_pair(d, "a", "h")
    assert twisted.handle("e").word == Word((("c", 1), ("h", 1), ("h", 1)))
    assert twisted.handle("f").word == single("c")
    assert twisted.handle("g").word == Word((("c", -1), ("h", -1)))
    assert twisted.handle("k") is d.handle("k")
    assert dict(twisted.links) == {("a", "e"): 2, ("f", "k"): 4}
    assert checked_flips == {"flips": 2, "kept": 3}


def test_flip_pair_matches_the_seed_off_the_store_rules(checked_flips):
    # a stored linking of k with the dotted circle a, which the twist drops;
    # a 2-handle named like the dotted circle c, whose linking with h d.lk
    # reads from h's word, not from the store entry (c, h); and one named
    # like the circle a itself
    d = make_datum(["a", "c"],
                   [two_handle("h", [("a", 1)], 0),
                    two_handle("k", [("c", 1)], -2),
                    two_handle("c", [], 1)],
                   links={("a", "k"): 7, ("c", "h"): 2})
    twisted = moves._flip_pair(d, "a", "h")
    assert ("a", "k") not in dict(twisted.links)
    assert twisted.handle("k") is d.handle("k")
    d = make_datum(["a"], [two_handle("h", [("a", -1)], 0), two_handle("a", [], -1)])
    assert moves._flip_pair(d, "a", "h").handle("a").word == single("h", -1)
    assert checked_flips["flips"] == 2


def _seed_slide_at(d, h1_id, h2_id, sign, position):
    """``slide_2_over_2`` with the band inserted after ``position`` letters."""
    h1 = moves._require_handle(d, h1_id)
    h2 = moves._require_handle(d, h2_id)
    letters = h1.word.letters
    new_word = Word(letters[:position] + (h2.word ** sign).letters + letters[position:])
    lk12 = d.lk(h1_id, h2_id)
    links = dict(d.links)
    for x, value in seed_partners(d, h2_id).items():
        if x not in (h1_id, h2_id):
            key = link_key(h1_id, x)
            links[key] = links.get(key, 0) + sign * value
    links[link_key(h1_id, h2_id)] = lk12 + sign * h2.framing
    new_h1 = TwoHandle(h1_id, new_word, h1.framing + h2.framing + 2 * sign * lk12)
    out = [new_h1 if h.id == h1_id else h for h in d.two_handles]
    meta = moves._drop_wheel_meta_if_touched(d, {h1_id})
    return make_datum(d.one_handles, out, d.three_handles, meta, links)


def seed_cancel_1_2(d, g, h):
    """``moves.cancel_1_2`` as a fixpoint loop: slide the first handle with
    a g-letter over h at that letter, rebuild, rescan, until no handle but h
    passes g; then erase the pair."""
    moves._require_generator(d, g)
    handle = moves._require_handle(d, h)
    if not handle.word.is_single(g):
        raise NotCancellableError(f"word of {h} does not reduce to a single pass through {g}")
    s0 = handle.word.letters[0][1]
    current, touched = d, {g, h}
    while True:
        occurrence = next(((x.id, i, e) for x in current.two_handles if x.id != h
                           for i, (l, e) in enumerate(x.word.letters) if l == g), None)
        if occurrence is None:
            break
        x, idx, e = occurrence
        current = _seed_slide_at(current, x, h, -e * s0, idx + 1)
        touched.add(x)
    survivors = [x for x in current.two_handles if x.id != h]
    links = {k: v for k, v in current.links if h not in k}
    ones = tuple(u for u in current.one_handles if u != g)
    meta = moves._drop_wheel_meta_if_touched(current, touched)
    return make_datum(ones, survivors, current.three_handles, meta, links)


def _check_cancel(d, g, h) -> bool:
    """``cancel_1_2`` against the seed; each handle without a g-letter comes
    back as the same object.  Broken wheel metadata stays as it was, where
    the seed drops it if one of its single-letter slides happened to repair
    it; True exactly then."""
    got, want = moves.cancel_1_2(d, g, h), seed_cancel_1_2(d, g, h)
    for x in d.two_handles:
        if x.id != h and g not in x.word.generators():
            assert got.handle(x.id) is x
    repaired = ("sequence" in d.meta_map and wheel_sequence(d) is None
                and got.meta == d.meta and want.meta != d.meta)
    if repaired:
        got = got.replace(meta=want.meta)
    assert got == want and datum_hash(got) == datum_hash(want)
    return repaired


def _cancel_every_pair(d) -> int:
    pairs = [(x.word.letters[0][0], x.id) for x in d.two_handles if len(x.word) == 1]
    for g, h in pairs:
        assert not _check_cancel(d, g, h)
    return len(pairs)


def test_cancel_1_2_matches_the_seed_on_every_family():
    data = [build_W(n, 1) for n in range(2, 8)]
    for n in range(1, 8):
        data += [build_X(n, 1, x) for x in all_sequences(n)]
    for n in range(2, 8):
        data += [build_W_twisted(n, 1, i) for i in range(1, n)]
        data += [build_Z(n, 1, i) for i in range(1, n)]
        data += [build_Z_twisted(n, 1, i) for i in range(1, n)]
    assert sum(map(_cancel_every_pair, data)) > 2000


def test_cancel_1_2_matches_the_seed_on_the_move_audit(monkeypatch):
    # every state a walk reaches is validated once: check its pairs there
    states = []

    def checked(d):
        states.append(_cancel_every_pair(d))
        return validate(d)

    monkeypatch.setattr(suites, "validate", checked)
    for _, build in suites._AUDIT_STARTS:
        _cancel_every_pair(build())
    assert suites.run_suite("move-audit").passed
    assert len(states) == suites.AUDIT_WALKS * suites.AUDIT_MOVES and sum(states) > 900


def _random_cancellation(rng):
    """A wheel datum with pair handles passing extra circles, extra handles,
    a random pair store (partners of k included, one unknown), framed pair
    handles not always 0-framed (broken wheel metadata), and the cancelling
    handle k on a random circle g; no two ids shared."""
    seq = "".join(rng.choice(STAR + ZERO) for _ in range(rng.randint(1, 3)))
    ones, handles = [], []
    for j, sym in enumerate(seq):
        dotted, framed = pair_ids(j, sym)
        ones.append(dotted)
        handles.append((framed, [(dotted, rng.choice((1, -1)))], rng.choice((0, 0, 0, 1, -1))))
    ones += [f"g{k}" for k in range(rng.randint(1, 2))]
    handles += [(f"e{k}", [], rng.randint(-3, 3)) for k in range(rng.randint(1, 3))]

    def letters():
        return [(rng.choice(ones), rng.choice((1, -1))) for _ in range(rng.randint(0, 5))]

    handles = [(x, letters() + w + letters() if rng.random() < 0.6 else w, f)
               for x, w, f in handles]
    g = rng.choice(ones)
    handles.append(("k", [(g, rng.choice((1, -1)))], rng.randint(-3, 3)))
    ids = [x for x, _, _ in handles]
    links = {(x, y): rng.randint(-3, 3) for i, x in enumerate(ids) for y in ids[i + 1:]
             if rng.random() < 0.4}
    if rng.random() < 0.1:
        links[("k", "zz")] = rng.randint(1, 2)
    meta = ({"family": "W", "sequence": seq, "n": len(seq), "m": 1}
            if rng.random() < 0.8 else {})
    d = make_datum(ones, [two_handle(x, w, f) for x, w, f in handles], 0, meta, links)
    return d, g


def test_cancel_1_2_matches_the_seed_on_random_data():
    rng = random.Random(16)
    repaired = 0
    for _ in range(3000):
        d, g = _random_cancellation(rng)
        repaired += _check_cancel(d, g, "k")
    assert 0 < repaired < 100


def _count_calls(monkeypatch, module, name, calls: list) -> None:
    """Replace ``module.name`` by a wrapper that appends ``name`` to ``calls``."""
    function = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return function(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_cancel_1_2_calls_no_other_move(monkeypatch):
    # one build, from parts in canonical order, and none through the public path
    builds = []
    _count_calls(monkeypatch, moves, "make_datum", builds)
    _count_calls(monkeypatch, moves, "_in_order", builds)
    d = make_datum(["a", "c"],
                   [two_handle("h", [("a", 1)], -1),
                    two_handle("e", [("a", 1), ("c", 1), ("a", 1)], 2),
                    two_handle("f", [("c", 1)], 0)],
                   links={("e", "h"): 1, ("f", "h"): 3})
    out = moves.cancel_1_2(d, "a", "h")
    assert builds == ["_in_order"]
    # S_e = -2: framing 2 + 2*(-2)*1 + 4*(-1) = -6, lk(e,f) = -2*3
    assert out.handle("e") == two_handle("e", [("c", 1)], -6)
    assert dict(out.links) == {("e", "f"): -6} and out.handle("f") is d.handle("f")


# --- rotation as a relabel ---------------------------------------------------------

def seed_rotation_ids(n, i):
    return {old: new for j in range(n)
            for old, new in zip(pair_ids(j, STAR), pair_ids((j + i) % n, STAR))}


def seed_rename(w, mapping):
    return Word(tuple((mapping.get(g, g), s) for g, s in w.letters))


def seed_rotate(d, i):
    seq = moves._require_wheel(d)
    mapping = seed_rotation_ids(len(seq), i)

    def rename(x):
        return mapping.get(x, x)

    ones = tuple(rename(g) for g in d.one_handles)
    handles = [TwoHandle(rename(h.id), seed_rename(h.word, mapping), h.framing)
               for h in d.two_handles]
    links = {(rename(x), rename(y)): v for (x, y), v in d.links}
    meta = d.meta_map | {"sequence": shift(seq, i)}
    return make_datum(ones, handles, d.three_handles, meta, links)


def memo_key(d):
    """The content part of ``suites._contractible``'s memo key."""
    return repr((d.one_handles, [(h.id, h.word.letters, h.framing) for h in d.two_handles],
                 d.three_handles, d.links))


def test_memo_key_is_the_one_contractible_stores():
    # the sweep builds the wheel of the least rotation of each sequence
    suites._CONTRACTIBLE.clear()
    least, _ = least_rotation("*00")
    d = build_X(3, 1, least)
    suites._contractible(d, 7)
    assert list(suites._CONTRACTIBLE) == [(memo_key(d), 7)]
    suites._CONTRACTIBLE.clear()


def _check_rotations(d) -> int:
    """Every rotation k in [-n, 2n) of the wheel d against the seed, which
    reads k only mod n: the same datum and the same memo key, whose repr
    also tells the letter signs' types apart, and, once per residue, the
    same hash."""
    n = len(wheel_sequence(d))
    for i in range(n):
        want = seed_rotate(d, i)
        key = memo_key(want)
        for k in (i - n, i, i + n):
            got = moves.rotate(d, k)
            assert got == want and memo_key(got) == key, (d.meta, k)
        assert datum_hash(got) == datum_hash(want)
    return 3 * n


def test_rotate_matches_the_seed_on_every_wheel():
    # m only rides along in meta, so it alternates over the sequences; each
    # rotation is also the wheel of the shifted sequence, which is what lets
    # ``lemma-2-2`` build its least rotation instead of rotating to it
    count = 0
    for n in range(1, 11):
        for k, x in enumerate(all_sequences(n)):
            d = build_X(n, 1 + k % 2, x)
            count += _check_rotations(d)
            for i in range(n):
                assert moves.rotate(d, i) == build_X(n, 1 + k % 2, shift(x, i)), (x, i)
    assert count == 3 * sum(n * 2 ** n for n in range(1, 11))


def test_rotate_matches_the_seed_on_the_decorated_wheels():
    count = 0
    for n in range(2, 8):
        data = [build_W(n, 1)]
        for i in range(1, n):
            data += [build_W_twisted(n, 1, i), build_Z(n, 1, i), build_Z_twisted(n, 1, i)]
        count += sum(map(_check_rotations, data))
    assert count > 1000


def test_rotate_matches_the_seed_on_the_move_audit(monkeypatch):
    # every state a walk reaches is validated once: rotate it there if it
    # is still a wheel
    rotations = []

    def checked(d):
        if wheel_sequence(d) is not None:
            rotations.append(_check_rotations(d))
        return validate(d)

    monkeypatch.setattr(suites, "validate", checked)
    assert suites.run_suite("move-audit").passed
    assert len(rotations) > 20


@given(st.lists(st.tuples(st.sampled_from("abc"), st.sampled_from((1, -1))), max_size=12),
       st.sampled_from("ab"), st.sampled_from("abx"))
def test_rename_under_a_merging_map_returns_a_reduced_word(letters, a_to, c_to):
    # a and b go to one name, so the map is not injective on a word that
    # passes both, and the relabel may create cancelling pairs
    w = Word(tuple(letters))
    mapping = {"a": a_to, "b": a_to, "c": c_to}
    got = w.rename(mapping)
    assert reduce_letters(got.letters) == got.letters
    assert got == seed_rename(w, mapping)


def test_rotation_ids_is_the_seed_dict():
    for n in range(1, 13):
        for i in range(-n, 2 * n):
            ids = rotation_ids(n, i)
            assert ids == seed_rotation_ids(n, i)
            ids["a0"] = "b0"  # a fresh dict: editing it changes no other call's
            assert rotation_ids(n, i) == seed_rotation_ids(n, i)
    for n in (0, -1):
        with pytest.raises(ValueError, match="wheel size must be >= 1"):
            rotation_ids(n, 1)


# --- cyclic word equality ------------------------------------------------------------

def seed_cyclic_rotation_equal(w1, w2):
    """Equality of cyclic words by a ``Word`` built for each rotation."""
    a, b = w1.cyclic_reduce(), w2.cyclic_reduce()
    if len(a) != len(b):
        return False
    return any(rot.letters == b.letters for rot in a.rotations())


# two generators make equal cyclic words likely; a raw letter list is
# freely reduced by ``Word`` but often not cyclically reduced
words = st.lists(st.tuples(st.sampled_from("ab"), st.sampled_from((1, -1))),
                 max_size=8).map(lambda ls: Word(tuple(ls)))


@st.composite
def word_pairs(draw):
    w = draw(words)
    kind = draw(st.sampled_from(("other", "same", "inverse", "rotated", "conjugated")))
    if kind == "other":
        return w, draw(words)
    if kind == "same":
        return w, w
    if kind == "inverse":
        return w, w.inverse()
    if kind == "rotated":
        k = draw(st.integers(0, max(len(w) - 1, 0)))
        return w, Word(w.letters[k:] + w.letters[:k])
    c = draw(words)
    return w, c * w * c.inverse()


@given(word_pairs())
@example((Word(), Word()))
@example((Word((("a", 1), ("b", 1), ("a", -1))), single("b")))
@example((Word((("a", 1), ("b", 1))), Word((("b", -1), ("a", -1)))))
def test_cyclic_rotation_equal_matches_the_seed(pair):
    w, v = pair
    for a, b in ((w, v), (v, w)):
        assert isomorphism._cyclic_rotation_equal(a, b) is seed_cyclic_rotation_equal(a, b)


# --- a deletion chain as one trace ----------------------------------------------------

def seed_deletion_chain(n, m, x):
    """One trace per deletion, each recorded against the datum the previous
    one produced, surviving pairs keeping their labels."""
    traces = []
    current = build_X(n, m, x)
    pairs = list(enumerate(x))
    for position in scripts.chain_deletion_indices(x):
        j, sym = pairs.pop(position)
        rec = Recorder(current)
        scripts._delete_steps(rec, j, sym)
        traces.append(rec.trace())
        current = rec.current
    return traces


def test_deletion_chain_is_the_seed_steps_concatenated():
    count = 0
    for n in range(2, 7):
        for m in (1, 2):
            for x in all_sequences(n):
                if is_constant(x):
                    continue
                trace, seed = scripts.deletion_chain(n, m, x), seed_deletion_chain(n, m, x)
                assert trace.initial == seed[0].initial, (n, m, x)
                assert trace.steps == tuple(chain.from_iterable(t.steps for t in seed))
                count += 1
    assert count == 228


def seed_chain_deletion_indices(x):
    """The smallest index whose deletion keeps the sequence non-constant,
    found by testing each; else the first non-star entry, else 0."""
    seq = x
    out = []
    while len(seq) > 1:
        choice = next((j for j in range(len(seq))
                       if not is_constant(scripts.deleted_sequence(seq, j))), None)
        if choice is None:
            non_star = [j for j in range(len(seq)) if seq[j] != STAR]
            choice = non_star[0] if non_star else 0
        out.append(choice)
        seq = scripts.deleted_sequence(seq, choice)
    return out


def test_chain_deletion_indices_match_the_seed():
    count = 0
    for n in range(1, 15):
        for x in all_sequences(n):
            assert scripts.chain_deletion_indices(x) == seed_chain_deletion_indices(x), x
            count += 1
    assert count == 2 ** 15 - 2


# --- datum lookups ------------------------------------------------------------------

def seed_handle(d, hid):
    """The first 2-handle with id ``hid``, by a scan."""
    for h in d.two_handles:
        if h.id == hid:
            return h
    return None


def seed_partners(d, hid):
    """The stored linkings of one 2-handle, by partner id, by a scan of the store."""
    return {y if x == hid else x: v for (x, y), v in d.links if hid in (x, y)}


def seed_linking_records(d):
    """Each 2-handle's word records with every stored pair written on both ends."""
    records = {h.id: {g: e for g, e in h.word.exponents().items() if e}
               for h in d.two_handles}
    for (x, y), v in d.links:
        records.setdefault(x, {})[y] = v
        records.setdefault(y, {})[x] = v
    return records


def seed_lk(d, x, y):
    """``KirbyDatum.lk`` with the pair store read through ``dict(d.links)``."""
    if y in d.one_handles:
        x, y = y, x
    if x in d.one_handles:
        h = seed_handle(d, y)
        return 0 if h is None else h.word.exponent_sum(x)
    return dict(d.links).get(link_key(x, y), 0)


def _check_lookups(d, lk=True) -> None:
    """Every lookup of ``d`` against its seed, on each of its ids, each id
    the store names and one id it does not have, with the keys of each
    result in the seed's order; ``lk`` on every pair of them unless ``lk``
    is false."""
    ids = sorted(set(d.one_handles) | set(d.handle_ids)
                 | {x for pair, _ in d.links for x in pair} | {"ghost"}, key=repr)
    for x in ids:
        assert d.handle(x) is seed_handle(d, x), x
        assert list(d.partners(x).items()) == list(seed_partners(d, x).items()), x
    got, want = linking_records(d), seed_linking_records(d)
    assert list(got) == list(want)
    assert all(list(got[x].items()) == list(want[x].items()) for x in want)
    for x in ids if lk else ():
        for y in ids:
            if type(x) is type(y):  # ``link_key`` orders the pair
                assert d.lk(x, y) == seed_lk(d, x, y), (x, y)


def test_lookups_match_the_seed_on_the_move_audit(monkeypatch):
    visited = [build() for _, build in suites._AUDIT_STARTS]

    def checked(d):
        visited.append(d)
        return validate(d)

    monkeypatch.setattr(suites, "validate", checked)  # every result of a move
    assert suites.run_suite("move-audit").passed
    assert len(visited) == len(suites._AUDIT_STARTS) + suites.AUDIT_WALKS * suites.AUDIT_MOVES
    for d in visited:
        _check_lookups(d)


def test_lookups_match_the_seed_on_every_state_of_the_scripts_grid(monkeypatch):
    states, hashes, computed = {}, [], []

    def hashed(d):
        states[id(d)] = d
        hashes.append(1)
        return datum_hash(d)

    monkeypatch.setattr(moves, "datum_hash", hashed)  # recording and replay
    _count_calls(monkeypatch, datum, "canonical_json", computed)
    _count_calls(monkeypatch, datum, "_wheel_violations", computed)
    assert suites.run_suite("lemma-3-4-scripts", {"n_max": 7, "m_max": 1}).passed
    # 19,788 hashes of 18,066 distinct states, each computed once: replay
    # reads the hash that the recorder stored on each case's start wheel.
    # build_X records each wheel's verdict and a new handle carries it, so
    # the wheel rule itself never runs
    assert len(hashes) == 19_788 and len(states) == 18_066
    assert Counter(computed) == {"canonical_json": 18_066}
    for d in states.values():
        _check_lookups(d, lk=False)
    for d in set(states.values()):  # lk reads only the value, so once per value
        _check_lookups(d)


def _handle(hid, tokens, framing):
    return two_handle(hid, [(t.lstrip("-"), -1 if t.startswith("-") else 1) for t in tokens],
                      framing)


@pytest.mark.parametrize("d", [
    # duplicate 2-handle ids: the first one is the handle, the last one's word the record
    make_datum(("a", "b"), [_handle("h", ["a"], 0), _handle("h", ["b", "b"], 1)]),
    make_datum(("a",), [_handle("h", ["a"], 0), _handle("h", [], 0)], links={("h", "k"): 2}),
    # a stored partner that is also a word generator: the store value wins
    make_datum(("a",), [_handle("h", ["a"], 0), _handle("a", [], 1)], links={("a", "h"): 3}),
    # self-linking, and linkings with ids that are no 2-handle
    make_datum((), [_handle("h", [], 0)], links={("h", "h"): 1, ("h", "ghost"): 2}),
    make_datum(("a",), [_handle("h", ["a"], 0)], links={("u", "v"): 4, ("a", "h"): -1}),
    # ids that are not strings
    make_datum((), [TwoHandle(7, Word(()), 0), TwoHandle(8, Word(()), 0)], links={(7, 8): 1}),
    make_datum((1,), [TwoHandle("h", Word(((1, 1),)), 0)]),
], ids=["duplicate-ids", "duplicate-ids-linked", "partner-is-generator", "self-linking",
        "unknown-partners", "int-handle-ids", "int-generator"])
def test_lookups_match_the_seed_on_data_only_the_api_builds(d):
    _check_lookups(d)


# --- blow-downs that keep untouched handles ------------------------------------------

def seed_blow_down(d, h):
    """``moves.blow_down`` rebuilding every surviving handle, through the
    public path."""
    handle = moves._require_handle(d, h)
    eps = handle.framing
    if handle.word or eps not in (1, -1):
        raise NotBlowdownableError(f"{h} is not a +-1-framed empty-word handle")
    k = seed_partners(d, h)
    ks = sorted(k.items())
    links = {pair: v for pair, v in d.links if h not in pair}
    for i, (x, kx) in enumerate(ks):
        for y, ky in ks[i + 1:]:
            key = link_key(x, y)
            links[key] = links.get(key, 0) - eps * kx * ky
    out = [TwoHandle(x.id, x.word, x.framing - eps * k.get(x.id, 0) ** 2)
           for x in d.two_handles if x.id != h]
    meta = moves._drop_wheel_meta_if_touched(d, {h} | set(k))
    return make_datum(d.one_handles, out, d.three_handles, meta, links)


def _check_blow_downs(d) -> tuple[int, int]:
    """Every blow-down of d against the seed, each handle that does not link
    the blown-down one coming back as the same object; the counts of
    blow-downs and of handles kept."""
    blown = kept = 0
    for h in [x.id for x in d.two_handles if not x.word and x.framing in (1, -1)]:
        got, want = blow_down(d, h), seed_blow_down(d, h)
        assert got == want and datum_hash(got) == datum_hash(want)
        for x in d.two_handles:
            if x.id != h and not d.lk(x.id, h):
                assert got.handle(x.id) is x
                kept += 1
        blown += 1
    return blown, kept


def test_blow_down_matches_the_seed_on_the_twisted_decorated_wheels():
    # every blow-down of each state that ``w-family`` passes on the way
    # from the twisted W(n) to its last blow-down
    blown = kept = 0
    for n in range(2, 9):
        for i in range(1, n):
            d = build_W_twisted(n, 1, i)
            for _ in range(i):
                b, k = _check_blow_downs(d)
                blown, kept = blown + b, kept + k
                d = blow_down(d, next(h.id for h in d.two_handles
                                      if not h.word and h.framing == -1))
            assert not _check_blow_downs(d)[0]
    assert (blown, kept) == (210, 5_082)


def test_blow_down_matches_the_seed_off_the_wheels():
    d = make_datum(["a"], [two_handle("e", [], 1), two_handle("f", [("a", 1)], 2),
                           two_handle("g", [], -3), two_handle("k", [], 0)],
                   links={("e", "f"): 2, ("e", "g"): -1, ("f", "k"): 5})
    assert _check_blow_downs(d) == (1, 1)
    assert dict(blow_down(d, "e").links) == {("f", "g"): 2, ("f", "k"): 5}
    # a -1 handle with no partners: the store keeps its entries
    d = make_datum(["a"], [two_handle("e", [], -1), two_handle("f", [("a", 1)], 2),
                           two_handle("g", [], 3)],
                   links={("f", "g"): 4})
    assert _check_blow_downs(d) == (1, 2)
    assert blow_down(d, "e").links == d.links
    # three partners, two of which link already: their pair changes to 0
    # and leaves the store, the two new pairs enter it
    d = make_datum(["a"], [two_handle("e", [], 1), two_handle("f", [("a", 1)], 2),
                           two_handle("g", [], -3), two_handle("k", [], 0),
                           two_handle("u", [], 5)],
                   links={("e", "f"): 1, ("e", "g"): 2, ("e", "k"): 3, ("f", "g"): 2,
                          ("g", "u"): 5})
    assert _check_blow_downs(d) == (1, 1)
    blown = blow_down(d, "e")
    assert dict(blown.links) == {("f", "k"): -3, ("g", "k"): -6, ("g", "u"): 5}
    assert [h.framing for h in blown.two_handles] == [1, -7, -9, 5]


# --- data built from parts in canonical order ----------------------------------------

def _check_in_order(d) -> bool:
    """A datum that ``datum._in_order`` built, against the public
    ``KirbyDatum`` of the same parts: equal, with the same hash, the same
    lookups in the same order, and a wheel verdict that ``_wheel_violations``
    gives afresh.  True when the verdict was stored at the build."""
    want = KirbyDatum(d.one_handles, d.two_handles, d.three_handles, d.meta, d.links)
    assert d == want and datum_hash(d) == datum_hash(want)
    assert list(d._by_id.items()) == list(want._by_id.items())
    assert ([(x, list(p.items())) for x, p in d._partners.items()]
            == [(x, list(p.items())) for x, p in want._partners.items()])
    carried = "_wheel" in vars(d)
    seq = d.meta_map.get("sequence")
    assert wheel_sequence(d) == (None if seq is None or datum._wheel_violations(d) else seq)
    return carried


@pytest.fixture
def checked_in_order(monkeypatch):
    """Checks each datum built in canonical order with ``_check_in_order``;
    yields the count of data by the function that built them (a move's name
    for a handle it adds), and of verdicts stored at the build."""
    build = datum._in_order
    counts = Counter()

    def checked(*parts, **kwargs):
        d = build(*parts, **kwargs)
        frame = sys._getframe(1)
        if frame.f_code.co_name == "_with_handle":
            frame = frame.f_back
        counts[frame.f_code.co_name] += 1
        counts["carried"] += _check_in_order(d)
        return d

    monkeypatch.setattr(moves, "_in_order", checked)
    monkeypatch.setattr(families, "_in_order", checked)
    return counts


_ORDERED_MOVES = {"slide_2_over_2", "slide_2_over_1", "cancel_1_2", "remove_split_zero_handle",
                  "attach_2handle", "blow_up", "blow_down"}


def _apply_each_ordered_move(d, rng) -> None:
    """Each move that keeps the handles' order, once on d wherever it
    applies, with params drawn by rng."""
    ids, ones = list(d.handle_ids), list(d.one_handles)
    sign = rng.choice((1, -1))
    if len(ids) >= 2:
        moves.slide_2_over_2(d, *rng.sample(ids, 2), sign)
    if ids and ones:
        moves.slide_2_over_1(d, rng.choice(ids), rng.choice(ones), sign,
                             rng.choice((moves.FRONT, moves.BACK)))
    singles = [x for x in d.two_handles if len(x.word) == 1]
    if singles:
        x = rng.choice(singles)
        moves.cancel_1_2(d, x.word.letters[0][0], x.id)
    units = [x.id for x in d.two_handles if not x.word and x.framing in (1, -1)]
    if units:
        moves.blow_down(d, rng.choice(units))
    splits = [x.id for x in d.two_handles
              if not x.word and x.framing == 0 and not d.partners(x.id)]
    if splits:
        moves.remove_split_zero_handle(d, rng.choice(splits))
    # a fresh id before, among or after the others
    fresh = rng.choice([x for x in ("0", "b1x", "m", "zz") if d.handle(x) is None])
    linking = {x: rng.randint(-2, 2) for x in rng.sample(ids, min(2, len(ids)))}
    word = [rng.choice(ones)] if ones and rng.random() < 0.7 else []
    moves.attach_2handle(d, fresh, word, rng.randint(-2, 2), linking)
    moves.blow_up(d, fresh, sign)
    moves.remove_split_zero_handle(moves.attach_2handle(d, fresh, [], 0), fresh)


def test_in_order_data_match_the_public_path_on_the_move_audit(monkeypatch, checked_in_order):
    states = [build() for _, build in suites._AUDIT_STARTS]

    def visited(d):
        states.append(d)
        return validate(d)

    monkeypatch.setattr(suites, "validate", visited)  # every result of a move
    assert suites.run_suite("move-audit").passed
    rng = random.Random(24)
    for d in states:
        _apply_each_ordered_move(d, rng)
    assert _ORDERED_MOVES <= checked_in_order.keys()
    assert min(checked_in_order[move] for move in _ORDERED_MOVES) > 200
    assert checked_in_order["carried"] > 50


def test_in_order_data_match_the_public_path_on_the_scripts_grid(checked_in_order):
    assert suites.run_suite("lemma-3-4-scripts", {"n_max": 7, "m_max": 1}).passed
    # each case builds its start wheel and its target, and records and
    # replays three moves per deleted pair; a meridian attached to a start
    # wheel carries its verdict
    assert checked_in_order == {"build_X": 3_444, "attach_2handle": 5_448,
                                "cancel_1_2": 5_448, "remove_split_zero_handle": 5_448,
                                "carried": 3_444 + 3_444}


def test_build_x_records_the_verdict_of_the_wheel_rule(checked_in_order):
    count = 0
    for n in range(1, 9):
        for k, x in enumerate(all_sequences(n)):
            assert wheel_sequence(build_X(n, 1 + k % 2, x, family="XE"[k % 2])) == x
            count += 1
    assert checked_in_order == {"build_X": count, "carried": count} and count == 510


def test_decorated_wheels_carry_the_verdict_of_the_wheel_rule(checked_in_order):
    # every W(n), Z(n) and their twists for n <= 12 and m <= 2, and each
    # blow-down that ``w-family`` takes on them; each twist flips two wheel
    # pairs, and every wheel datum is built with its verdict
    blow_downs = 0
    for n in range(2, 13):
        for m in (1, 2):
            build_W(n, m)
            for i in range(1, n):
                d = build_W_twisted(n, m, i)
                for _ in range(i):
                    d = blow_down(d, next(h.id for h in d.two_handles
                                          if not h.word and h.framing == -1))
                build_Z(n, m, i)
                blow_down(build_Z_twisted(n, m, i), "z")
                blow_downs += i + 1
    builds = 2 * (11 + 3 * 66)  # W(n), then per i the twisted W, Z and twisted Z
    assert checked_in_order == {"build_X": builds, "_decorated": builds,
                                "_flip_pair": 2 * 4 * 66, "blow_down": blow_downs,
                                "carried": 2 * builds + 2 * 4 * 66}
    assert blow_downs == 2 * (286 + 66)


# --- the wheel metadata that a move keeps ----------------------------------------------

def seed_drop_wheel_meta_if_touched(d, touched_ids):
    seq = wheel_sequence(d)
    if seq is None or not any(touched_ids.intersection(pair_ids(j, sym))
                              for j, sym in enumerate(seq)):
        return d.meta
    return tuple(item for item in d.meta if item[0] not in moves._WHEEL_KEYS)


def test_kept_wheel_metadata_matches_the_seed_on_the_move_audit(monkeypatch):
    real, dropped = moves._drop_wheel_meta_if_touched, Counter()

    def checked(d, touched_ids):
        out = real(d, touched_ids)
        assert out == seed_drop_wheel_meta_if_touched(d, touched_ids), touched_ids
        dropped[out != d.meta] += 1
        return out

    for _, build in suites._AUDIT_STARTS:
        d = build()
        n = len(wheel_sequence(d) or "")
        for hid in ("a0", "b0", f"a{n - 1}", f"b{n - 1}", f"a{n}", f"b{n}", "a01", "a-1",
                    "a\u0661", "del", 0):
            checked(d, {hid})
    monkeypatch.setattr(moves, "_drop_wheel_meta_if_touched", checked)
    assert suites.run_suite("move-audit").passed
    assert dropped[True] > 30 and dropped[False] > 500, dropped
