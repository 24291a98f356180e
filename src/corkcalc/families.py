"""Generators for every named manifold datum.

A wheel datum has n circle pairs (radial circle ``a{j}``, circular circle
``b{j}``, linking number one inside the pair, all cross-pair linkings zero).
A {*,0}-sequence selects the dotted member of each pair: ``*`` dots the
radial circle and 0-frames the circular one, ``0`` the other way round
(``sequences.pair_ids``).
Pair j's 0-framed handle is one ``TwoHandle`` object per symbol, kept in a
module table and shared by every wheel ``build_X`` makes, so its word and
its cached JSON fragment are built once per process.  ``build_X`` hands
its parts to ``datum._in_order`` already sorted and records its sequence
as the datum's wheel verdict: it has just checked every part of the wheel
rule.  The decorated wheels do the same on top of ``build_C``: ``build_W``
and ``build_Z`` append their meridians, whose ids sort after every wheel
handle, and carry the C(n) verdict, which meridians of fresh ids, a
family name and an ``i`` with 1 <= i < n cannot break.  ``build_W_twisted``
and ``twist_Z`` twist such a wheel with ``twist_wheel``, whose pair twists
keep the canonical order and carry the flipped sequence.
The -m twist boxes of the planar picture are invisible at this fidelity;
m rides along as metadata and re-enters in the Legendrian front data.  So
``build_X(n, m, x)`` equals ``build_X(n, 1, x)`` in every part but ``meta``,
and ``build_E(n, m)`` equals ``build_C(n, 1)`` the same way; ``suites``
stores one contractibility result per rotation class on that premise.
"""

from __future__ import annotations

from operator import attrgetter

from .datum import KirbyDatum, TwoHandle, _in_order, make_datum, two_handle, wheel_sequence
from .errors import BadIndexError
from .moves import twist_pairs, twist_wheel
from .sequences import STAR, ZERO, check_wheel, is_int, pair_ids
from .words import single

_by_id = attrgetter("id")


def _require_ints(**values) -> None:
    """Refuse with ``BadIndexError`` any value that is not an int
    (``is_int``), before it reaches a comparison, a product or ``meta``."""
    for name, v in values.items():
        if not is_int(v):
            raise BadIndexError(f"need an integer {name}, got {v!r}")


# --- wheel families -------------------------------------------------------------

# (pair index, symbol) -> the pair's 0-framed handle, passing its dotted
# circle once; both symbols of a pair index are added together
_PAIR_HANDLES: dict[tuple[int, str], TwoHandle] = {}


def _pair_handle(j: int, symbol: str) -> TwoHandle:
    handle = _PAIR_HANDLES.get((j, symbol))
    if handle is None:
        for sym in (STAR, ZERO):
            dotted, framed = pair_ids(j, sym)
            _PAIR_HANDLES[j, sym] = TwoHandle(framed, single(dotted), 0)
        handle = _PAIR_HANDLES[j, symbol]
    return handle


def build_X(n: int, m: int, x: str, family: str = "X") -> KirbyDatum:
    """The wheel datum for the given {*,0}-sequence (``check_wheel``'s rule)."""
    check_wheel(n, m, x, "wheel")
    if not isinstance(family, str):
        raise BadIndexError(f"need a family name string, got {family!r}")
    handles = sorted((_pair_handle(j, sym) for j, sym in enumerate(x)), key=_by_id)
    ones = sorted(h.word.letters[0][0] for h in handles)  # each pair's dotted circle
    meta = (("family", family), ("m", m), ("n", n), ("sequence", x))  # sorted by key
    return _in_order(tuple(ones), tuple(handles), 0, meta, (), wheel=x)


def c_sequence(n: int) -> str:
    return STAR + "0" * (n - 1)


def d_sequence(n: int) -> str:
    return "0" + STAR * (n - 1)


def f_sequence(n: int) -> str:
    return ("0" + STAR) * n


def build_C(n: int, m: int) -> KirbyDatum:
    _require_ints(n=n)
    return build_X(n, m, c_sequence(n), family="C")


def build_D(n: int, m: int) -> KirbyDatum:
    _require_ints(n=n)
    return build_X(n, m, d_sequence(n), family="D")


def build_F(n: int, m: int) -> KirbyDatum:
    """Alternating family on a wheel of size 2n."""
    _require_ints(n=n)
    return build_X(2 * n, m, f_sequence(n), family="F")


def build_Cm(m: int) -> KirbyDatum:
    """The basic two-component cork datum (wheel of size one)."""
    return build_C(1, m)


def dot_zero_exchange(d: KirbyDatum) -> KirbyDatum:
    """Exchange all dots and 0s of a bare wheel datum (twist every pair)."""
    seq = wheel_sequence(d)
    if seq is None:
        raise BadIndexError("dot-zero exchange needs wheel metadata")
    return twist_pairs(d, range(len(seq)))


# --- decorated families ----------------------------------------------------------

def _decorated(c: KirbyDatum, extra: tuple[TwoHandle, ...], labels: tuple) -> KirbyDatum:
    """The wheel ``c`` of ``build_C`` with the extra handles, whose ids sort
    after every wheel handle, and its ``meta`` after the ``family`` entry
    under the given labels (sorted by key).  Handles of fresh ids, a new
    family string and an ``i`` with 1 <= i < n break no wheel rule, so the
    wheel verdict of ``c`` carries over."""
    return _in_order(c.one_handles, c.two_handles + extra, 0, labels + c.meta[1:], (),
                     wheel=wheel_sequence(c))


def _build_W(n: int, m: int, labels: tuple) -> KirbyDatum:
    """``build_W`` under the given leading ``meta`` labels."""
    _require_ints(n=n)
    if n < 2:
        raise BadIndexError("need n >= 2")
    meridians = []
    for j in range(1, n):
        circular, _ = pair_ids(j, ZERO)  # pair j > 0 of C(n) is a 0 pair
        word = single(circular)
        meridians += [TwoHandle(f"m{j}_{k}", word, -1) for k in range(1, j + 1)]
    return _decorated(build_C(n, m), tuple(sorted(meridians, key=_by_id)), labels)


def build_W(n: int, m: int) -> KirbyDatum:
    """The order-n cork wheel plus j parallel -1-framed meridians of the j-th
    circular circle for every 1 <= j <= n-1 (pairwise meridian linkings 0)."""
    return _build_W(n, m, (("family", "W"),))


def build_W_twisted(n: int, m: int, i: int) -> KirbyDatum:
    """Cork twist of the decorated wheel by the i-th rotation power.

    The dot pattern shifts under the twist, so exactly i meridians land on
    the 0-framed side with empty words: those are the blow-downable ones.
    The wheel is built with its ``i`` label, which the twist keeps.
    """
    _require_ints(n=n, i=i)
    if not 0 <= i <= n - 1:
        raise BadIndexError(f"need 0 <= i <= n-1, got i={i}")
    if i == 0:
        return build_W(n, m)
    return twist_wheel(_build_W(n, m, (("family", "W"), ("i", i))), i)


def build_Z(n: int, m: int, i: int) -> KirbyDatum:
    """The order-n cork wheel with one -1-framed meridian on circle b{n-i}."""
    _require_ints(n=n, i=i)
    if not 0 < i < n:
        raise BadIndexError(f"need 0 < i < n, got i={i}")
    c = build_C(n, m)
    circular, _ = pair_ids(n - i, ZERO)  # pair n-i > 0 of C(n) is a 0 pair
    return _decorated(c, (two_handle("z", single(circular), -1),), (("family", "Z"), ("i", i)))


def twist_Z(z: KirbyDatum, n: int, i: int) -> KirbyDatum:
    """Twist z = build_Z(n, m, i) so that z lies on a 0-framed member, a square
    -1 sphere: of a twist's two inverse rotation powers, n-i realizes that."""
    return twist_wheel(z, (n - i) % n)


def build_Z_twisted(n: int, m: int, i: int) -> KirbyDatum:
    """Companion of build_Z: ``twist_Z`` of build_Z(n, m, i)."""
    return twist_Z(build_Z(n, m, i), n, i)


# --- the modified wheel family and elliptic-surface forms ---------------------------

def build_E(n: int, m: int) -> KirbyDatum:
    """The modified-wheel datum.

    At this fidelity the modification's extra knotting is invisible (the
    pair separation and contractibility checks force the same algebraic
    data as the plain wheel), so E(n, m) is the head-family wheel under the
    E tag.
    """
    _require_ints(n=n)
    return build_X(n, m, c_sequence(n), family="E")


_E8_EDGES = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7))


def load_elliptic_surface(l: int) -> KirbyDatum:
    """Plumbing-form 2-handlebody: l negative-E8 blocks plus 2l-1 hyperbolic
    pairs, realizing b2 = 12l - 2 and signature -8l (the characteristic
    numbers are computed from the form, never trusted)."""
    _require_ints(l=l)
    if l < 1:
        raise BadIndexError("need l >= 1")
    handles, links = [], {}
    for b in range(l):
        ids = [f"e{b}n{i}" for i in range(8)]
        handles += [two_handle(hid, (), -2) for hid in ids]
        links.update({(ids[i], ids[j]): 1 for i, j in _E8_EDGES})
    for k in range(2 * l - 1):
        handles += [two_handle(f"h{k}a", (), 0), two_handle(f"h{k}b", (), 0)]
        links[(f"h{k}a", f"h{k}b")] = 1
    return make_datum((), handles, 0, {"family": "El", "l": l}, links)
