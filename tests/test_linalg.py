import hashlib
import math
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from corkcalc import linalg
from corkcalc.errors import NotSquareError
from corkcalc.families import build_W
from corkcalc.invariants import intersection_form
from corkcalc.linalg import (DiagMinusOneResult, IntMatrix, coker_invariants, congruence,
                             det, is_diag_minus_one, kernel_basis, signature, snf)
from test_linalg_oracles import assert_snf_matches_seed


def cofactor_det(rows):
    """Oracle: cofactor expansion along the first row, memoized on column sets."""
    n = len(rows)

    @lru_cache(maxsize=None)
    def minor(k, cols):
        # determinant of rows k.. restricted to the sorted column tuple ``cols``
        if k == n:
            return 1
        return sum((-1) ** pos * rows[k][c] * minor(k + 1, cols[:pos] + cols[pos + 1:])
                   for pos, c in enumerate(cols) if rows[k][c])

    return minor(0, tuple(range(n)))


def random_matrix(rng, rows, cols, lo=-5, hi=5):
    return IntMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


def check_snf(m):
    """``snf`` reads the diagonal of the seed's S, its V's columns at the
    zero slots and its sign; the seed's U @ m @ V is S with U and V
    unimodular and S diagonal; returns the seed's result."""
    res = assert_snf_matches_seed(m)
    assert abs(det(res.U)) == 1
    assert abs(det(res.V)) == 1
    diag = res.S.diagonal()
    for i in range(m.rows):
        for j in range(m.cols):
            if i != j:
                assert res.S.at(i, j) == 0
    for a, b in zip(diag, diag[1:]):
        assert a >= 0
        if a != 0:
            assert b % a == 0
        else:
            assert b == 0
    return res


def test_identity_matches_the_per_entry_definition():
    for n in range(41):
        entries = tuple(int(i == j) for i in range(n) for j in range(n))
        assert IntMatrix.identity(n) == IntMatrix(n, n, entries), n


def test_snf_identity():
    res = check_snf(IntMatrix.identity(3))
    assert res.S == IntMatrix.identity(3)


def test_snf_two_by_two_unimodular():
    res = check_snf(IntMatrix.from_rows([[0, 1], [1, -1]]))
    assert res.S.diagonal() == (1, 1)


def test_snf_gcd_lcm_structure():
    m = IntMatrix.from_rows([[2, 0], [0, 3]])
    res = check_snf(m)
    # d1 = gcd of entries, d1*d2 = |det|
    assert res.S.diagonal() == (1, 6)
    entries = [2, 0, 0, 3]
    assert math.gcd(*entries) == 1
    assert abs(cofactor_det([[2, 0], [0, 3]])) == 6


def test_snf_random_round_trip():
    rng = random.Random(11)
    for _ in range(300):
        m = random_matrix(rng, rng.randint(0, 6), rng.randint(0, 6))
        check_snf(m)


def test_abs_det_is_product_of_diagonal():
    rng = random.Random(13)
    for _ in range(100):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n, n, -4, 4)
        res = check_snf(m)
        prod = 1
        for d in res.S.diagonal():
            prod *= d
        assert abs(det(m)) == prod


def test_det_examples():
    assert det(IntMatrix.identity(4)) == 1
    assert det(IntMatrix.from_rows([[0, 1], [1, 0]])) == -1
    assert det(IntMatrix.zero(0, 0)) == 1
    with pytest.raises(NotSquareError):
        det(IntMatrix.zero(2, 3))


def test_det_against_cofactor_oracle():
    rng = random.Random(17)
    for _ in range(150):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        assert det(IntMatrix.from_rows(rows)) == cofactor_det(rows)


def test_kernel_basis_examples():
    assert len(kernel_basis(IntMatrix.zero(2, 2))) == 2
    basis = kernel_basis(IntMatrix.from_rows([[1, 1]]))
    assert len(basis) == 1
    v = basis[0]
    assert v[0] + v[1] == 0 and abs(v[0]) == 1


def test_kernel_vectors_are_exact_and_primitive():
    rng = random.Random(19)
    for _ in range(100):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 6), -3, 3)
        for v in kernel_basis(m):
            assert all(sum(m.at(i, j) * v[j] for j in range(m.cols)) == 0
                       for i in range(m.rows))
            assert math.gcd(*[abs(c) for c in v]) == 1


def test_coker_examples():
    assert coker_invariants(IntMatrix.from_rows([[1]])) == []
    assert coker_invariants(IntMatrix.from_rows([[2]])) == [2]
    # |det| = 1 via the 2x2 oracle ad - bc
    assert abs(0 * 0 - 1 * 1) == 1
    assert coker_invariants(IntMatrix.from_rows([[0, 1], [1, 0]])) == []
    assert coker_invariants(IntMatrix.zero(2, 1)) == [0, 0]


def test_coker_invariant_under_unimodular_multiplication():
    rng = random.Random(23)
    for _ in range(60):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), -3, 3)
        res = check_snf(m)  # U, V unimodular
        left = res.U.mul(m)
        right = m.mul(res.V)
        assert coker_invariants(left) == coker_invariants(m)
        assert coker_invariants(right) == coker_invariants(m)


def test_torsion_order_equals_abs_det():
    # for square nondegenerate m, the cokernel is finite of order |det|
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n, n, -3, 3)
        d = det(m)
        if d == 0:
            continue
        order = 1
        for f in coker_invariants(m):
            order *= f
        assert order == abs(d)


def test_signature_examples():
    assert signature(IntMatrix.from_rows([[2, 0], [0, -3]])) == (1, 1, 0)
    assert signature(IntMatrix.from_rows([[0, 1], [1, 0]])) == (1, 1, 0)
    assert signature(IntMatrix.zero(3, 3)) == (0, 0, 3)
    assert signature(IntMatrix.from_rows([[-1]])) == (0, 1, 0)


def test_signature_matches_diagonal_on_random_congruates():
    rng = random.Random(29)
    for _ in range(40):
        n = rng.randint(1, 4)
        diag = [rng.choice((-3, -1, 1, 2)) for _ in range(n)]
        q = IntMatrix.from_rows([[diag[i] if i == j else 0 for j in range(n)]
                                 for i in range(n)])
        p = random_matrix(rng, n, n, -2, 2)
        if det(p) == 0:
            continue
        congruate = p.transpose().mul(q).mul(p)
        pos, neg, zero = signature(congruate)
        assert (pos, neg, zero) == (sum(1 for d in diag if d > 0),
                                    sum(1 for d in diag if d < 0), 0)


NEG_E8 = [
    [-2, 1, 0, 0, 0, 0, 0, 0],
    [1, -2, 1, 0, 0, 0, 0, 0],
    [0, 1, -2, 1, 0, 0, 0, 0],
    [0, 0, 1, -2, 1, 0, 0, 0],
    [0, 0, 0, 1, -2, 1, 0, 1],
    [0, 0, 0, 0, 1, -2, 1, 0],
    [0, 0, 0, 0, 0, 1, -2, 0],
    [0, 0, 0, 0, 1, 0, 0, -2],
]


def test_diag_minus_one_trivial_cases():
    neg_id = IntMatrix.from_rows([[-1, 0, 0], [0, -1, 0], [0, 0, -1]])
    res = is_diag_minus_one(neg_id)
    assert res.verdict is True
    assert res.witness.transpose().mul(neg_id).mul(res.witness) == neg_id

    assert is_diag_minus_one(IntMatrix.from_rows([[-1, 0], [0, 1]])).verdict is False
    assert is_diag_minus_one(IntMatrix.from_rows([[-2]])).verdict is False
    assert is_diag_minus_one(IntMatrix.identity(0)).verdict is True


def test_diag_minus_one_needs_basis_change():
    q = IntMatrix.from_rows([[-2, 1], [1, -1]])
    res = is_diag_minus_one(q)
    assert res.verdict is True
    wit = res.witness
    neg_id = IntMatrix.from_rows([[-1, 0], [0, -1]])
    assert wit.transpose().mul(q).mul(wit) == neg_id


def test_diag_minus_one_even_form_is_inconclusive():
    # negative definite and unimodular, but even: no norm -1 vector exists
    q = IntMatrix.from_rows(NEG_E8)
    assert det(q) == 1
    assert signature(q) == (0, 8, 0)
    res = is_diag_minus_one(q)
    assert res.verdict is None


@given(st.integers(1, 4))
@settings(max_examples=10)
def test_diag_minus_one_on_shuffled_negatives(n):
    q = IntMatrix.from_rows([[-1 if i == j else 0 for j in range(n)] for i in range(n)])
    assert is_diag_minus_one(q).verdict is True


# --- determinant and product oracles ------------------------------------------------

def test_snf_determinant_matches_det_and_cofactor_oracle():
    rng = random.Random(41)
    singular = 0
    for trial in range(1200):
        n = rng.randint(0, 8)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        if n >= 1 and trial % 3 == 0:
            # force a singular matrix: the last row combines the others
            coeffs = [rng.randint(-2, 2) for _ in range(n - 1)]
            rows[-1] = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(n)]
        m = IntMatrix.from_rows(rows)
        res = snf(m)
        assert res.sign in (1, -1)
        expected = cofactor_det(rows)
        assert res.det() == det(m) == expected
        singular += expected == 0
    assert singular >= 300


def test_snf_determinant_needs_square():
    with pytest.raises(NotSquareError):
        snf(IntMatrix.zero(2, 3)).det()
    with pytest.raises(NotSquareError):
        snf(IntMatrix.zero(0, 3)).det()


def test_snf_of_zero_row_matrix_keeps_shape():
    check_snf(IntMatrix.zero(0, 3))
    res = snf(IntMatrix.zero(0, 3), v=True)
    assert (res.rows, res.cols, res.diagonal) == (0, 3, ())
    assert res.kernel == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert res.coker_invariants() == []


def per_entry_mul(a, b):
    return IntMatrix(a.rows, b.cols, tuple(
        sum(a.at(i, k) * b.at(k, j) for k in range(a.cols))
        for i in range(a.rows) for j in range(b.cols)))


def per_entry_transpose(a):
    return IntMatrix(a.cols, a.rows, tuple(
        a.at(i, j) for j in range(a.cols) for i in range(a.rows)))


def test_mul_with_empty_inner_dimension_is_zero():
    for rows, cols in ((3, 4), (0, 2), (2, 0), (0, 0)):
        product = IntMatrix.zero(rows, 0).mul(IntMatrix.zero(0, cols))
        assert product == IntMatrix.zero(rows, cols)


def test_transpose_of_empty_shapes():
    for k in range(4):
        for m in (IntMatrix.zero(0, k), IntMatrix.zero(k, 0)):
            assert m.transpose() == per_entry_transpose(m)


def random_sparse(rng, rows, cols, density):
    """Entries in -5..5, each nonzero with probability ``density``."""
    return IntMatrix(rows, cols, tuple(rng.choice((-5, -2, -1, 1, 3, 5))
                                       if rng.random() < density else 0
                                       for _ in range(rows * cols)))


def test_mul_and_transpose_match_per_entry_reference():
    rng = random.Random(43)
    empty = [(r, k, c) for r in (0, 3) for k in (0, 2) for c in (0, 4) if 0 in (r, k, c)]
    for r, k, c in empty + [tuple(rng.randint(0, 5) for _ in range(3)) for _ in range(300)]:
        a = IntMatrix(r, k, tuple(rng.randint(-5, 5) for _ in range(r * k)))
        b = IntMatrix(k, c, tuple(rng.randint(-5, 5) for _ in range(k * c)))
        zero_rows = IntMatrix(r, k, tuple(x if i % 2 else 0 for i in range(r) for x in a.row(i)))
        for left in (a, random_sparse(rng, r, k, 0.2), zero_rows, IntMatrix.zero(r, k)):
            assert left.mul(b) == per_entry_mul(left, b)
            assert left.transpose() == per_entry_transpose(left)


def test_congruence_matches_per_entry_reference():
    rng = random.Random(59)
    for _ in range(300):
        m, k = rng.randint(0, 7), rng.randint(0, 7)
        upper = random_sparse(rng, m, m, 0.5)
        q = IntMatrix(m, m, tuple(upper.at(min(i, j), max(i, j))
                                  for i in range(m) for j in range(m)))
        c = random_sparse(rng, k, m, rng.choice((0.0, 0.15, 0.4)))
        want = IntMatrix(k, k, tuple(
            sum(c.at(i, a) * q.at(a, b) * c.at(j, b) for a in range(m) for b in range(m))
            for i in range(k) for j in range(k)))
        assert congruence(q, c) == want


def test_is_symmetric_matches_per_entry_definition():
    rng = random.Random(61)
    shapes = [(0, 0), (0, 3), (3, 0), (1, 1)] + [
        (rng.randint(0, 6), rng.randint(0, 6)) for _ in range(300)]
    for r, c in shapes:
        a = random_sparse(rng, r, c, rng.choice((0.0, 0.3, 0.8)))
        cases = [a]
        if r == c:  # and its upper triangle mirrored, which is symmetric
            cases.append(IntMatrix(r, r, tuple(a.at(min(i, j), max(i, j))
                                               for i in range(r) for j in range(r))))
        for m in cases:
            want = m.rows == m.cols and all(m.at(i, j) == m.at(j, i)
                                            for i in range(m.rows) for j in range(i))
            assert m.is_symmetric() == want
    assert IntMatrix.zero(0, 0).is_symmetric() and not IntMatrix.zero(0, 2).is_symmetric()


# --- the -I recognizer against its SNF-kernel reference --------------------------------

def reference_is_diag_minus_one(q, height=4):
    """The recognizer as it was before the closed-form split: an SNF kernel and a
    full congruence for every peeled vector."""
    if not q.is_symmetric():
        raise ValueError("is_diag_minus_one needs a symmetric matrix")
    n = q.rows
    if n == 0:
        return DiagMinusOneResult(True, IntMatrix.identity(0), "empty form")
    pos, neg, zero = signature(q)
    if pos or zero:
        return DiagMinusOneResult(False, None, f"not negative definite (inertia {(pos, neg, zero)})")
    if abs(det(q)) != 1:
        return DiagMinusOneResult(False, None, "determinant is not a unit")

    columns = []
    basis = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
    current = q
    while current.rows > 0:
        m = current.rows
        vec = None
        for i in range(m):
            if current.at(i, i) == -1:
                vec = tuple(1 if k == i else 0 for k in range(m))
                break
        if vec is None:
            p_rows = [[Fraction(-current.at(i, j)) for j in range(m)] for i in range(m)]
            vec = next(linalg._norm_one_vectors(p_rows, height), None)
        if vec is None:
            return DiagMinusOneResult(None, None, "search budget exhausted")
        ambient = tuple(sum(vec[k] * basis[k][i] for k in range(m)) for i in range(n))
        columns.append(ambient)
        row = IntMatrix(1, m, tuple(
            sum(vec[k] * current.at(k, j) for k in range(m)) for j in range(m)))
        complement = kernel_basis(row)
        basis = [tuple(sum(c[k] * basis[k][i] for k in range(m)) for i in range(n))
                 for c in complement]
        b = IntMatrix(m, len(complement), tuple(
            complement[j][i] for i in range(m) for j in range(len(complement))))
        current = b.transpose().mul(current).mul(b)

    witness = IntMatrix(n, n, tuple(columns[j][i] for i in range(n) for j in range(n)))
    check = witness.transpose().mul(q).mul(witness)
    neg_identity = IntMatrix(n, n, tuple(-1 if i == j else 0 for i in range(n) for j in range(n)))
    if check != neg_identity:
        raise AssertionError("internal error: witness does not verify")
    return DiagMinusOneResult(True, witness, "witness verified")


def random_unimodular(rng, n):
    """A product of random elementary operations: swaps, negations, additions."""
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(rng.randint(0, 3 * n)):
        i, j = rng.randrange(n), rng.randrange(n)
        kind = rng.random()
        if kind < 0.2:
            p[i], p[j] = p[j], p[i]
        elif kind < 0.3:
            p[i] = [-x for x in p[i]]
        elif i != j:
            c = rng.choice((-2, -1, 1, 2))
            p[i] = [x + c * y for x, y in zip(p[i], p[j])]
    return IntMatrix.from_rows(p)


def first_split_pivot_precedes_row(q):
    """True when the first diagonal -1 of q has an earlier unit entry in its row."""
    rows = q.to_rows()
    i = next((k for k in range(len(rows)) if rows[k][k] == -1), None)
    if i is None:
        return False
    return any(x in (1, -1) for x in rows[i][:i])


def assert_same_verdict(q):
    got, want = is_diag_minus_one(q), reference_is_diag_minus_one(q)
    assert (got.verdict, got.reason) == (want.verdict, want.reason)
    assert (got.witness and got.witness.entries) == (want.witness and want.witness.entries)
    return got


def test_diag_minus_one_matches_reference_on_congruences_of_minus_identity(monkeypatch):
    dropped = []  # the position of every split -e_i row dropped from the slots
    drop = linalg._drop_slot

    def recording_drop(slots, i):
        dropped.append(i)
        return drop(slots, i)

    monkeypatch.setattr(linalg, "_drop_slot", recording_drop)
    rng = random.Random(47)
    pivot_before_row = verdicts_true = 0
    for _ in range(1200):
        n = rng.randint(0, 8)
        p = random_unimodular(rng, n)
        q = IntMatrix(n, n, tuple(-x for x in p.transpose().mul(p).entries))
        pivot_before_row += first_split_pivot_precedes_row(q)
        verdicts_true += assert_same_verdict(q).verdict is True
    assert pivot_before_row >= 100
    assert verdicts_true >= 1000
    assert 0 in dropped and any(i > 0 for i in dropped)


def test_diag_minus_one_matches_reference_on_random_symmetric_forms():
    rng = random.Random(53)
    outcomes = set()
    for _ in range(1000):
        n = rng.randint(0, 8)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = rng.randint(-3, 1)
            for j in range(i):
                rows[i][j] = rows[j][i] = rng.randint(-1, 1)
        outcomes.add(assert_same_verdict(IntMatrix.from_rows(rows)).verdict)
    assert outcomes == {True, False}


def test_diag_minus_one_matches_reference_on_decorated_wheels():
    for n in range(2, 11):
        assert assert_same_verdict(intersection_form(build_W(n, 1))).verdict is True


# sha256 of repr(witness.entries) for the forms of W(n), m = 1, where
# reference_is_diag_minus_one is too slow to compare with (12 s on W(18))
WHEEL_WITNESS_SHA256 = {
    12: "c68cc105124a3245fae6c9c632d9521791eb9219c22fba2002a873a93113e5ee",
    18: "f40a85b016d5cda93a6acecfb61c8693c41bc0e4e4213eeb62e89d55a3c51ab6",
    24: "78815703ae55cf52b771cb8408d8e08367548c5717356f37f5ece6dbaab5b62d",
}


@pytest.mark.parametrize("n", sorted(WHEEL_WITNESS_SHA256))
def test_diag_minus_one_witnesses_of_large_wheels_are_pinned(n):
    res = is_diag_minus_one(intersection_form(build_W(n, 1)))
    assert res.verdict is True
    assert hashlib.sha256(repr(res.witness.entries).encode()).hexdigest() == \
        WHEEL_WITNESS_SHA256[n]


def test_diag_minus_one_splits_without_snf_kernel(monkeypatch):
    q = intersection_form(build_W(12, 1))

    def no_kernel(m):
        raise AssertionError("kernel_basis called on the -1 split path")

    monkeypatch.setattr(linalg, "kernel_basis", no_kernel)
    res = is_diag_minus_one(q)
    assert res.verdict is True
    assert res.witness.transpose().mul(q).mul(res.witness) == IntMatrix(
        q.rows, q.rows, tuple(-int(i == j) for i in range(q.rows) for j in range(q.rows)))


def test_diag_minus_one_multiplies_only_in_the_witness_check(monkeypatch):
    # the form of W(11) is -I itself: every step drops a split -e_i from the slots,
    # so the only products are the two of congruence(q, W^T)
    q = intersection_form(build_W(11, 1))
    assert q.rows == 55
    calls = []
    mul = IntMatrix.mul

    def counting_mul(self, other):
        calls.append(other.cols)
        return mul(self, other)

    monkeypatch.setattr(IntMatrix, "mul", counting_mul)
    assert is_diag_minus_one(q).verdict is True
    assert len(calls) == 2


def test_diag_minus_one_needs_no_determinant_when_the_peel_finishes(monkeypatch):
    q = intersection_form(build_W(12, 1))

    def no_det(m):
        raise AssertionError("det called although no lattice search ran")

    monkeypatch.setattr(linalg, "det", no_det)
    assert is_diag_minus_one(q).verdict is True


def test_diag_minus_one_needs_no_signature_when_the_peel_finishes(monkeypatch):
    q = intersection_form(build_W(12, 1))

    def no_signature(m):
        raise AssertionError("signature called although no lattice search ran")

    monkeypatch.setattr(linalg, "signature", no_signature)
    assert is_diag_minus_one(q).verdict is True


@pytest.mark.parametrize("rows, inertia, rest", [
    ([[-1, 1], [1, 1]], (1, 1, 0), [[2]]),
    ([[-1, 0, 0], [0, -1, 1], [0, 1, 0]], (1, 2, 0), [[1]]),
])
def test_diag_minus_one_counts_the_peeled_vectors_in_the_inertia(monkeypatch, rows, inertia, rest):
    # each form splits off norm -1 vectors down to the 1x1 rest before its
    # signature is taken
    q = IntMatrix.from_rows(rows)
    assert signature(q) == inertia
    taken = []
    real = linalg.signature
    monkeypatch.setattr(linalg, "signature", lambda m: taken.append(m.to_rows()) or real(m))
    res = assert_same_verdict(q)
    assert (res.verdict, res.reason) == (False, f"not negative definite (inertia {inertia})")
    assert taken == [rest]
