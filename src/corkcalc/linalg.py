"""Exact integer matrix algebra: Smith normal form, determinants, kernels,
cokernel invariants, signatures, and negative-definite form recognition.

Everything runs on Python integers (arbitrary precision); no floating point
enters any result.  Pivot choices are deterministic: smallest nonzero
absolute value, ties broken by position.

One ``snf`` yields a matrix's cokernel invariants, kernel basis and (for a
square matrix) determinant from what it returns: S's diagonal, the sign
and, on request, the kernel vectors.  U, S and V exist only in the test
seeds.  It takes an ``IntMatrix``, or sparse rows ({column: nonzero}
dicts) and a shape, as ``datum.exponent_rows`` and ``datum.linking_rows``
hand them over, and eliminates on the nonzero entries alone: rows are
dicts with a per-column set of the rows holding each column, and row and
column positions are index lists, so a swap copies no entry.  The pivot
is the first entry of least absolute value, row-major from (t, t), and
the operations are those of the dense elimination, so what it returns
does not depend on the representation.  A column operation changes S in
its pivot row alone.  Every product goes through ``IntMatrix.mul``, which
skips the zero coefficients of its left factor, and every congruence
c q c^T through ``congruence``.  ``is_diag_minus_one`` drops a split -e_i
row from a list of surviving slots, copying no entry; any other norm -1
vector, a diagonal -1 or a lattice search's find, is split off with the
SNF kernel of its row; ``signature`` and ``det`` run only before a search.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress
from math import ceil, floor, gcd, isqrt, prod
from typing import Mapping, Sequence

from .errors import NotSquareError


@dataclass(frozen=True)
class IntMatrix:
    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count must equal rows * cols")

    @staticmethod
    def from_rows(rows: list[list[int]]) -> "IntMatrix":
        r = len(rows)
        c = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows")
        return IntMatrix(r, c, tuple(map(int, chain.from_iterable(rows))))

    @staticmethod
    def from_sparse(rows: Sequence[Mapping[int, int]], cols: int) -> "IntMatrix":
        """The len(rows) x cols matrix whose row i holds rows[i] = {column: entry}."""
        entries = [0] * (len(rows) * cols)
        for i, row in enumerate(rows):
            for j, x in row.items():
                if not 0 <= j < cols:
                    raise ValueError(f"column {j} is outside {cols} columns")
                entries[i * cols + j] = x
        return IntMatrix(len(rows), cols, tuple(entries))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        entries = [0] * (n * n)
        entries[::n + 1] = [1] * n
        return IntMatrix(n, n, tuple(entries))

    @staticmethod
    def zero(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(rows, cols, (0,) * (rows * cols))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols: (i + 1) * self.cols]

    def col(self, j: int) -> tuple[int, ...]:
        return self.entries[j::self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows,
                         tuple(chain.from_iterable(map(self.col, range(self.cols)))))

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        """Row i of the product is the sum of a * other.row(k) over the nonzero
        entries a = self[i][k]: the cost follows the nonzeros of self."""
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        rows = [other.row(k) for k in range(other.rows)]
        zero = (0,) * other.cols
        out = []
        for i in range(self.rows):
            r = self.row(i)
            acc = None
            for a, row in compress(zip(r, rows), r):
                acc = ([a * x for x in row] if acc is None
                       else [s + a * x for s, x in zip(acc, row)])
            out.extend(zero if acc is None else acc)
        return IntMatrix(self.rows, other.cols, tuple(out))

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and self.entries == self.transpose().entries

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.at(i, i) for i in range(min(self.rows, self.cols)))

    def __str__(self):
        return "\n".join(" ".join(f"{v:4d}" for v in self.row(i)) for i in range(self.rows))


@dataclass(frozen=True)
class SNFResult:
    """S = U @ m @ V read off: S's diagonal, ``sign`` = det(U) * det(V), +1
    or -1, and ``kernel`` (None unless asked for), V's columns at the zero
    diagonal slots: a basis of ker(m)."""
    rows: int
    cols: int
    diagonal: tuple[int, ...]
    sign: int
    kernel: list[tuple[int, ...]] | None = None

    def coker_invariants(self) -> list[int]:
        """Nontrivial invariant factors of coker(m); each free summand is a 0."""
        nonzero = [d for d in self.diagonal if d != 0]
        factors = [d for d in nonzero if d != 1]
        factors.extend([0] * (self.rows - len(nonzero)))
        return factors

    def det(self) -> int:
        """det(m) of a square m: the product of S's diagonal times ``sign``."""
        if self.rows != self.cols:
            raise NotSquareError(
                f"determinant needs a square matrix, got {self.rows}x{self.cols}")
        return self.sign * prod(self.diagonal)


def det(m: IntMatrix) -> int:
    """Exact determinant of a square m: ``snf(m).det()``."""
    return snf(m).det()


def congruence(q: IntMatrix, c: IntMatrix) -> IntMatrix:
    """c @ q @ c^T for a symmetric q.  Both products keep c on the left, so
    they cost what the nonzeros of c's rows cost."""
    return c.mul(c.mul(q).transpose())


def snf(m: IntMatrix | Sequence[Mapping[int, int]], shape: tuple[int, int] | None = None,
        *, v: bool = False) -> SNFResult:
    """Smith normal form S = U @ m @ V: S's diagonal and the sign, and with
    ``v`` the kernel vectors, V's columns at the zero diagonal slots.

    ``m`` is an ``IntMatrix``, or with ``shape`` = (rows, cols) a list of
    sparse rows, each a {column: entry} mapping (zero entries may be left
    out; the caller's rows are copied, never changed).

    The diagonal of S is non-negative and satisfies d_i | d_{i+1}.  Every
    row or column swap and every row negation flips the tracked unit
    ``sign`` = det(U) * det(V); row and column additions leave it alone.
    So det(m) = sign * prod(diag S) for square m, with no second pass.
    The pivot sequence, hence the diagonal and sign, does not depend on v.

    The working matrix is its nonzero entries only: each row a dict keyed
    by the row's original column, and ``holders[c]`` the set of rows with a
    nonzero in column c.  Positions are index lists (``row_at``/``col_at``
    and their inverses), so a swap moves two indices and copies no entry.
    At step t the pivot is the first entry of least absolute value, rows
    in position order from t and, within a row, columns in position order;
    a unit is least.  Row t then clears column t below it and column t
    clears row t to its right.  The first remainder that is not zero, in
    position order, is swapped into (t, t) and the step starts over; the
    operations before it act on distinct rows (columns), so they are made
    in any order.  A non-unit pivot that fails to divide a later row adds
    the first such row to row t and starts over.  V is kept as its columns,
    sparse by row, and a column operation touches row t of S alone: column
    t is zero below it, and earlier pivot rows are zero there.
    """
    if shape is None:
        R, C = m.rows, m.cols
        e = m.entries
        rows = [{j: x for j, x in enumerate(e[i * C:(i + 1) * C]) if x} for i in range(R)]
    else:
        R, C = shape
        if R < 0 or C < 0 or len(m) != R:
            raise ValueError(f"{len(m)} rows do not fit the shape {R}x{C}")
        rows = [{j: x for j, x in row.items() if x} for row in m]
        if any(not 0 <= j < C for row in rows for j in row):
            raise ValueError(f"a column index is outside the shape {R}x{C}")
    holders: list[set[int]] = [set() for _ in range(C)]
    for r, row in enumerate(rows):
        for j in row:
            holders[j].add(r)
    row_at, row_pos = list(range(R)), list(range(R))
    col_at, col_pos = list(range(C)), list(range(C))
    v_cols = [{j: 1} for j in range(C)] if v else None
    sign = 1

    def swap_rows(i, j):
        nonlocal sign
        if i != j:
            ri, rj = row_at[i], row_at[j]
            row_at[i], row_at[j], row_pos[ri], row_pos[rj] = rj, ri, j, i
            sign = -sign

    def swap_cols(i, j):
        nonlocal sign
        if i != j:
            ci, cj = col_at[i], col_at[j]
            col_at[i], col_at[j], col_pos[ci], col_pos[cj] = cj, ci, j, i
            sign = -sign

    def add_row(dst, src, q):
        # row dst += q * row src, for rows by their original index
        row = rows[dst]
        for j, x in rows[src].items():
            y = row.get(j)
            if y is None:
                row[j] = q * x
                holders[j].add(dst)
            elif y + q * x:
                row[j] = y + q * x
            else:
                del row[j]
                holders[j].discard(dst)

    def add_v_col(dst, src, q):
        col = v_cols[dst]
        for i, x in v_cols[src].items():
            y = col.get(i, 0) + q * x
            if y:
                col[i] = y
            else:
                del col[i]

    for t in range(min(R, C)):
        # rows at positions >= t hold no column at a position < t
        best = None
        for i in range(t, R):
            row = rows[row_at[i]]
            if row:
                low = min(map(abs, row.values()))
                if best is None or low < least:
                    best, least = i, low
                    if low == 1:
                        break
        if best is None:
            break
        swap_rows(t, best)
        pivot_row = rows[row_at[t]]
        swap_cols(t, col_pos[next(iter(pivot_row))] if len(pivot_row) == 1 else
                  min(col_pos[j] for j, x in pivot_row.items() if x == least or x == -least))
        while True:
            rt, ct = row_at[t], col_at[t]
            pivot_row = rows[rt]
            p = pivot_row[ct]
            unit = p == 1 or p == -1
            if unit and len(pivot_row) == 1 and len(holders[ct]) == 1:
                break  # alone in its row and column: nothing to clear
            # Clear column t below row t, re-pivoting on the first nonzero remainder.
            below = [r for r in holders[ct] if r != rt]
            bad = None if unit else min((r for r in below if rows[r][ct] % p),
                                        key=row_pos.__getitem__, default=None)
            if bad is not None:
                below = [r for r in below if row_pos[r] <= row_pos[bad]]
            for r in below:
                q = rows[r][ct] // p
                if q:
                    add_row(r, rt, -q)
            if bad is not None:
                swap_rows(t, row_pos[bad])
                continue
            # Clear row t right of column t, the same way.
            right = [j for j in pivot_row if j != ct]
            bad = None if unit else min((j for j in right if pivot_row[j] % p),
                                        key=col_pos.__getitem__, default=None)
            if bad is not None:
                right = [j for j in right if col_pos[j] <= col_pos[bad]]
            for j in right:
                q = pivot_row[j] // p
                if q:
                    y = pivot_row[j] - q * p
                    if y:
                        pivot_row[j] = y
                    else:
                        del pivot_row[j]
                        holders[j].discard(rt)
                    if v:
                        add_v_col(j, ct, -q)
            if bad is not None:
                swap_cols(t, col_pos[bad])
                continue
            # Enforce the divisibility chain before moving on; a unit divides all.
            bad = None if unit else next(
                (i for i in range(t + 1, R) if any(x % p for x in rows[row_at[i]].values())),
                None)
            if bad is None:
                break
            add_row(rt, row_at[bad], 1)
        if p < 0:
            pivot_row[ct] = -p
            sign = -sign

    diagonal = tuple(rows[row_at[t]].get(col_at[t], 0) for t in range(min(R, C)))
    kernel = None
    if v:  # the zero slots are the last: a zero pivot ends the elimination
        kernel = []
        for j in col_at[sum(map(bool, diagonal)):]:
            vec = [0] * C
            for i, x in v_cols[j].items():
                vec[i] = x
            kernel.append(tuple(vec))
    return SNFResult(R, C, diagonal, sign, kernel)


def kernel_basis(m: IntMatrix | Sequence[Mapping[int, int]],
                 shape: tuple[int, int] | None = None) -> list[tuple[int, ...]]:
    """Basis of the integer kernel lattice {v : m @ v = 0}, for m as ``snf``
    takes it.

    Vectors are columns of the SNF transform V for the zero diagonal slots,
    hence primitive and linearly independent.
    """
    return snf(m, shape, v=True).kernel


def coker_invariants(m: IntMatrix) -> list[int]:
    """Nontrivial invariant factors of Z^rows / column-span(m).

    Finite factors appear in divisibility order; each free summand is a 0.
    An empty list means the cokernel is trivial.
    """
    return snf(m).coker_invariants()


def signature(q: IntMatrix) -> tuple[int, int, int]:
    """(positive, negative, zero) inertia of a symmetric integer matrix.

    Exact integer congruence: at a pivot p, each e_j with c = a[j][p] != 0
    becomes (|p| e_j - sgn(p) c e_p) / gcd(p, c), and rows with c == 0 stay
    untouched, so a sparse form stays sparse.  What is left is the Schur
    complement scaled by squares: same inertia.  The gcd keeps a chain of
    -2 framings polynomial in size; without it the entries square at every
    pivot.  When every diagonal entry left is 0, e_i += e_j on the first
    row i left and the first j it links makes one nonzero, unless row i is 0.
    """
    if not q.is_symmetric():
        raise ValueError("signature needs a symmetric matrix")
    a = q.to_rows()
    remaining = list(range(q.rows))  # the indices not yet split off
    neg = zero = 0
    while remaining:
        i = next((k for k in remaining if a[k][k]), None)
        if i is None:
            i = remaining[0]
            j = next((k for k in remaining if a[i][k]), None)
            if j is None:
                zero += 1
                remaining.pop(0)
                continue
            a[i] = [x + y for x, y in zip(a[i], a[j])]
            for r in remaining:
                a[r][i] += a[r][j]
        remaining.remove(i)
        pivot = a[i]
        p = pivot[i]
        neg += p < 0
        scaled = []
        for j in remaining:
            c = pivot[j]
            if c:
                g = gcd(p, c)
                s, t = abs(p) // g, (c if p > 0 else -c) // g
                a[j] = [s * x - t * y for x, y in zip(a[j], pivot)]
                scaled.append((j, s))
        # the same operations on the columns: a[r][i] is 0 now for every r left
        for r in remaining:
            row = a[r]
            for j, s in scaled:
                row[j] *= s
    return q.rows - neg - zero, neg, zero


@dataclass(frozen=True)
class DiagMinusOneResult:
    """Three-valued verdict: verdict True/False, or None for inconclusive."""
    verdict: bool | None
    witness: IntMatrix | None
    reason: str

    def __bool__(self):
        return self.verdict is True


def _cholesky(p: list[list[Fraction]]):
    """Decompose positive definite p as sum d_k (x_k + sum_{j>k} l_kj x_j)^2."""
    n = len(p)
    a = [row[:] for row in p]
    d = []
    l = [[Fraction(0)] * n for _ in range(n)]
    for k in range(n):
        d.append(a[k][k])
        for j in range(k + 1, n):
            l[k][j] = a[k][j] / a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] -= a[i][k] * a[k][j] / a[k][k]
    return d, l


def _isqrt_frac(x: Fraction) -> int:
    # floor(sqrt(p/q)) = floor(sqrt(p*q)/q)
    return isqrt(x.numerator * x.denominator) // x.denominator


def _norm_one_vectors(p_rows: list[list[Fraction]], height: int):
    """Yield integer vectors v with v^T P v == 1 (P positive definite),
    coordinates bounded by ``height``, in deterministic order."""
    n = len(p_rows)
    d, l = _cholesky(p_rows)
    v = [0] * n

    def rec(k, remaining):
        if k < 0:
            if remaining == 0:
                yield tuple(v)
            return
        center = -sum(l[k][j] * v[j] for j in range(k + 1, n))
        if d[k] <= 0:
            return
        bound = remaining / d[k]
        r = _isqrt_frac(bound) + 1
        lo = max(-height, ceil(center - r))
        hi = min(height, floor(center + r))
        for x in range(lo, hi + 1):
            term = d[k] * (Fraction(x) - center) ** 2
            if term <= remaining:
                v[k] = x
                yield from rec(k - 1, remaining - term)
                v[k] = 0

    yield from rec(n - 1, Fraction(1))


def _drop_slot(slots: list[int], i: int) -> list[int]:
    """The surviving slots after splitting off a row -e_i at position i.  The
    one-row SNF kernel of -e_i is e_1..e_{m-1} with e_0 standing in position
    i, so its congruence moves slot 0 to position i - 1 and deletes slot i."""
    return slots[1:i] + slots[:1] + slots[i + 1:] if i else slots[1:]


SEARCH_HEIGHT = 4  # coefficient bound of the norm -1 vector search


def is_diag_minus_one(q: IntMatrix) -> DiagMinusOneResult:
    """Decide whether symmetric q is unimodularly congruent to -Identity.

    Greedy: peel off norm -1 vectors and recurse on the orthogonal complement
    lattice.  The current form is the last materialised one read at a list
    of surviving slots.  While it has a -1 on its diagonal, the first such
    slot i is split off.  When its row is -e_i, the complement is a
    permutation of the unit vectors, so ``_drop_slot`` permutes and deletes
    slots, with no product and no copy; the form of a wheel, -I itself, is
    peeled this way throughout.  Any other such slot takes vec = e_i, and
    only when no diagonal entry is -1 does the lattice search run, for a
    norm -1 vector with coefficients bounded by ``SEARCH_HEIGHT``; either
    vec is followed, on the form and basis materialised at the slots, by
    the SNF kernel of its row, and the form is updated through
    ``congruence``.  Each split keeps |det| and adds one -1 to the inertia
    (Sylvester), so ``signature`` and ``det`` run only before a search, and a
    peel that needs none proves q ~ -I.  A definiteness or determinant
    obstruction is a definite False; an exhausted search without one is
    inconclusive, never False.  A True verdict carries a witness W with
    W^T q W == -I, checked here."""
    if not q.is_symmetric():
        raise ValueError("is_diag_minus_one needs a symmetric matrix")
    n = q.rows
    if n == 0:
        return DiagMinusOneResult(True, IntMatrix.identity(0), "empty form")

    columns: list[tuple[int, ...]] = []
    # row k: the k-th basis vector of the last materialised lattice, in the
    # original coordinates; the current basis is basis read at the slots
    basis = IntMatrix.identity(n)
    current = q
    slots = list(range(n))
    while slots:
        m = len(slots)
        i = next((k for k, s in enumerate(slots) if current.at(s, s) == -1), None)
        # a dropped slot's row was -e_j, so each row left is 0 there: read it whole
        if i is not None and sum(map(bool, current.row(slots[i]))) == 1:  # row i is -e_i
            columns.append(basis.row(slots[i]))
            slots = _drop_slot(slots, i)
            continue
        if m < current.rows:  # materialise the current form and basis
            current = IntMatrix(m, m, tuple(current.at(r, c) for r in slots for c in slots))
            basis = IntMatrix(m, basis.cols, tuple(chain.from_iterable(map(basis.row, slots))))
        if i is not None:
            vec = tuple(int(k == i) for k in range(m))
        else:  # q's inertia is current's plus the n - m norm -1 vectors split off
            pos, neg, zero = signature(current)
            if pos or zero:
                return DiagMinusOneResult(
                    False, None, f"not negative definite (inertia {(pos, neg + n - m, zero)})")
            if abs(det(current)) != 1:
                return DiagMinusOneResult(False, None, "determinant is not a unit")
            p_rows = [[Fraction(-x) for x in current.row(k)] for k in range(m)]
            vec = next(_norm_one_vectors(p_rows, SEARCH_HEIGHT), None)
            if vec is None:
                return DiagMinusOneResult(None, None, "search budget exhausted")
        kernel = kernel_basis(IntMatrix(1, m, vec).mul(current))
        complement = IntMatrix(len(kernel), m, tuple(chain.from_iterable(kernel)))
        columns.append(IntMatrix(1, m, vec).mul(basis).entries)
        basis = complement.mul(basis)
        current = congruence(current, complement)
        slots = list(range(current.rows))

    witness_t = IntMatrix(n, n, tuple(chain.from_iterable(columns)))
    neg_identity = IntMatrix(n, n, tuple(-x for x in IntMatrix.identity(n).entries))
    if congruence(q, witness_t) != neg_identity:
        raise AssertionError("internal error: witness does not verify")
    return DiagMinusOneResult(True, witness_t.transpose(), "witness verified")
