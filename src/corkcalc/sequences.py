"""Cyclic {*,0}-sequence combinatorics and the wheel's pair convention.

A sequence is a nonempty string over the alphabet ``*`` and ``0``.  Entry j
selects which member of the j-th circle pair of a wheel datum carries the
dot (``pair_ids`` names the pair's circles, ``pair_index`` reads them back
and ``pair_relabeling`` renames them); cyclic shifts rotate the wheel,
whose circles ``rotation_ids`` relabels.
Cork-order computation rests on the (documented) composability axiom: if
two boundary self-maps of a manifold each extend over the interior, so does
their composite, hence a rotation extends whenever some power fixing the
sequence does.

Each public function validates its sequence once (``check_sequence``), and
``check_wheel`` the parameters (n, m, x) of a wheel; both read the one rule
``is_sequence``, a C-level ``lstrip`` over the alphabet.  ``period`` is the
doubled-string test: the least p > 0 with ``shift(x, p) == x`` is the first
index p >= 1 at which x occurs in x + x, one substring search instead of a
shift per candidate.
"""

from __future__ import annotations

import itertools

from .errors import BadIndexError, LengthMismatchError

STAR = "*"
ZERO = "0"


def is_sequence(x) -> bool:
    """A nonempty string with nothing left after ``lstrip`` of the alphabet."""
    return isinstance(x, str) and x != "" and not x.lstrip(STAR + ZERO)


def check_sequence(x: str) -> str:
    """Return x unchanged if ``is_sequence(x)``, else raise ``ValueError``."""
    if is_sequence(x):
        return x
    bad = x.lstrip(STAR + ZERO) if isinstance(x, str) else ""  # from the first bad symbol
    raise ValueError(f"invalid sequence symbol {bad[0]!r}" if bad
                     else "sequence must be a nonempty string of '*' and '0'")


def is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def check_wheel(n, m, x, what: str) -> None:
    """Refuse ``what`` with ``BadIndexError`` naming the values unless
    (n, m, x) are a wheel's parameters: x a sequence (``is_sequence``), n
    and m ints (``is_int``), n == len(x) and m >= 1.  A length mismatch
    alone raises ``LengthMismatchError``."""
    if not (is_sequence(x) and is_int(n) and is_int(m) and m >= 1):
        raise BadIndexError(f"bad {what} parameters n={n!r}, m={m!r}, sequence={x!r}")
    if n != len(x):
        raise LengthMismatchError(f"bad {what} parameters: n={n}, sequence length {len(x)}")


def pair_ids(j: int, symbol: str) -> tuple[str, str]:
    """The (dotted, framed) ids of wheel pair j under ``symbol``: pair j is
    the radial circle ``a{j}`` and the circular circle ``b{j}``, and ``*``
    dots the radial one, ``0`` the circular one."""
    radial, circular = f"a{j}", f"b{j}"
    return (radial, circular) if symbol == STAR else (circular, radial)


def pair_index(g) -> tuple[int, str] | None:
    """The (j, symbol) with ``pair_ids(j, symbol)[0] == g``, or None: g is a
    circle of pair j, dotted under symbol (so "a01", "a-1", a non-ASCII digit
    and a non-str name no pair, and a j >= n no pair of an n-wheel)."""
    if not (isinstance(g, str) and g[1:].isdecimal()):
        return None
    j = int(g[1:])
    radial, circular = pair_ids(j, STAR)  # dotted under ``*`` and under ``0``
    return (j, STAR) if g == radial else (j, ZERO) if g == circular else None


def dotted_pairs(dotted) -> list[tuple[int, str]] | None:
    """The (j, symbol) that each dotted circle of ``dotted`` names
    (``pair_index``), in increasing j, or None if a circle names no pair or
    two circles name one."""
    pairs = [pair_index(g) for g in dotted]
    if None in pairs or len({j for j, _ in pairs}) < len(pairs):
        return None
    return sorted(pairs)


def pair_relabeling(js, r: int) -> dict[str, str]:
    """The circle relabeling that takes each circle of pair ``js[k]`` to
    the same circle of pair k - r mod len(js), as ``pair_ids`` names them."""
    n = len(js)
    ids = {}
    for k, j in enumerate(js):
        t = (k - r) % n
        ids[f"a{j}"], ids[f"b{j}"] = f"a{t}", f"b{t}"
    return ids


def rotation_ids(n: int, i: int) -> dict[str, str]:
    """The circle relabeling of rotating an n-pair wheel by i: each circle
    of pair j goes to the same circle of pair j + i mod n, whatever the
    sequence, which rotates with it (``shift``)."""
    if n < 1:
        raise ValueError("wheel size must be >= 1")
    return pair_relabeling(range(n), -i)


def shift(x: str, i: int) -> str:
    """Cyclic shift: entry j of the result is entry (j - i) mod n of x."""
    check_sequence(x)
    n = len(x)
    i %= n
    return x[n - i:] + x[: n - i]


def least_rotation(x: str) -> tuple[str, int]:
    """The least rotation r of x and a shift i with ``shift(x, i) == r``
    (the least such i when x is periodic)."""
    check_sequence(x)
    n = len(x)
    # x[k:] + x[:k] is shift(x, -k)
    return min((x[k:] + x[:k], -k % n) for k in range(n))


def period(x: str) -> int:
    """Least p > 0 with shift(x, p) == x.  Always divides len(x).

    x occurs in x + x at index p exactly when shift(x, p) == x, and at
    index len(x) at the latest."""
    check_sequence(x)
    return (x + x).find(x, 1)


def is_constant(x: str) -> bool:
    check_sequence(x)
    return not x.strip(x[0])


def cork_order(x: str) -> int | None:
    """Certified cork order of the wheel manifold indexed by x:
    ``order_of_period(period(x))``."""
    return order_of_period(period(x))


def order_of_period(p: int) -> int | None:
    """The cork order that a sequence of period p certifies.

    Returns p when the sequence is non-constant (period > 1).  Returns None
    for constant sequences, the sequences of period 1: the period-based
    certificate does not apply there, reported as NOT_A_CORK by the CLI.
    """
    return p if p > 1 else None


def rotation_map_order(n: int) -> int:
    """Order of the one-step wheel rotation as a permutation of 2n circles."""
    if n < 1:
        raise ValueError("wheel size must be >= 1")
    step = rotation_ids(n, 1)
    order, current = 1, step
    while any(old != new for old, new in current.items()):
        current = {old: step[new] for old, new in current.items()}
        order += 1
    return order


def all_sequences(n: int):
    """Iterate all 2**n sequences of length n in lexicographic order, ``0``
    before ``*``; n >= 1, since a sequence is nonempty."""
    if n < 1:
        raise ValueError("sequence length must be >= 1")
    return map("".join, itertools.product((ZERO, STAR), repeat=n))
