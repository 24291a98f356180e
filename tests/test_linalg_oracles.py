"""The linear algebra against frozen copies of the dense code it replaced.

``seed_snf`` (transforms always built, full pivot scan, divisibility scan
at every pivot), ``seed_signature`` (rational congruence) and
``seed_full_linking_matrix`` (one ``d.lk`` per entry) are kept here as
oracles: the new code must give identical SNF transforms, diagonal and
sign, identical inertia and identical linking matrices.
"""

from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from corkcalc.datum import exponent_matrix, full_linking_matrix, make_datum, two_handle
from corkcalc.families import (build_C, build_Cm, build_D, build_E, build_F, build_W,
                               build_W_twisted, build_X, build_Z, build_Z_twisted,
                               load_elliptic_surface)
from corkcalc.invariants import intersection_form
from corkcalc.linalg import IntMatrix, SNFResult, signature, snf
from corkcalc.moves import blow_down
from corkcalc.sequences import all_sequences


def seed_snf(m: IntMatrix) -> SNFResult:
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

    return SNFResult(IntMatrix.from_rows(u), IntMatrix(R, C, tuple(chain.from_iterable(a))),
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


def assert_snf_matches_seed(m):
    want = seed_snf(m)
    got = snf(m, u=True, v=True)
    assert (got.U, got.S, got.V, got.sign) == (want.U, want.S, want.V, want.sign)
    bare = snf(m)
    assert (bare.U, bare.S, bare.V, bare.sign) == (None, want.S, None, want.sign)
    assert snf(m, v=True).V == want.V


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


def test_kernel_basis_needs_the_transform_v():
    with pytest.raises(ValueError):
        snf(IntMatrix.from_rows([[1, 1]])).kernel_basis()
    assert snf(IntMatrix.from_rows([[1, 1]]), v=True).kernel_basis() == [(-1, 1)]


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
