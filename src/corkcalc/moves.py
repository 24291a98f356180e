"""The move engine: validity-checked datum rewrites with replayable traces.

Move semantics
--------------
Every move reads and writes the datum's single linking store (one entry
per unordered 2-handle pair); dotted-circle linkings follow the words.

``slide_2_over_2`` adds a framed parallel copy of one 2-handle to another:
the word gains the slid-over handle's word, the framing changes by
``f2 + 2*sign*lk(h1,h2)``, ``lk(h1,x)`` gains ``sign*lk(h2,x)`` for every
other 2-handle x, and ``lk(h1,h2)`` itself gains ``sign*f2``.  On the full
linking matrix this is a unimodular congruence.

``cancel_1_2`` removes a dotted circle g together with a 2-handle h whose
word is g^s0, after sliding every other word free of g in one pass: a
handle x with a g-letter is slid net S_x = -s0 * (exponent sum of g in x)
times, so its word loses its g-letters, its framing becomes
``f_x + 2*S_x*lk(x,h) + S_x**2 * f_h``, and ``lk(x,y)`` gains
``S_x*lk(h,y)`` for every other partner y of h.  Handles are taken in id
order, and each reads ``lk(h,x) + S_x*f_h`` for a handle x slid before it;
a handle without a g-letter keeps its object.

``remove_split_zero_handle`` is the fused pair "split 0-framed 2-handle
plus the 3-handle that caps it": the handle disappears and the modeled
3-handle absorbs the H2 class it carried, so the explicit 3-handle count
never changes.

``blow_down`` removes a ``blowdownable`` handle e (the one statement of the
rule: empty word, framing eps = +-1) by a rank-one update: every survivor
pair loses ``eps*lk(x,e)*lk(y,e)`` and every framing ``eps*lk(x,e)**2``;
boundary homology is untouched and b2 drops by one (Gompf-Stipsicz,
*4-Manifolds and Kirby Calculus*, sec. 5.1).  Only the partners of e change.

Cork twists exchange the roles inside a (dotted circle, 0-framed handle)
pair.  ``cork_twist_pair`` requires the pair to be algebraically separated;
``twist_pairs`` twists chosen pairs of a wheel-family datum and
``twist_wheel`` twists the whole wheel by a rotation power, both
rewriting external handles that hang on the affected pairs (letters through
a circle losing its dot become linkings with the new 0-framed handle, and
vice versa; re-entered letters append at the word end, the only convention
available at this fidelity).  A pair twist rewrites only the handles that
pass its dotted circle or link its 0-framed handle; every other handle
object carries over unchanged.

All moves are pure: they return fresh data and never mutate inputs.  Every
move but ``rotate`` hands canonical parts to ``datum._in_order``, which
sorts and checks nothing: the slides, ``cancel_1_2`` and
``remove_split_zero_handle`` keep the handles' order, ``attach_2handle``
and ``blow_up`` insert the new handle in id order, ``blow_down`` rebuilds
only the handles that link the blown-down one and sorts the pair store
again only when two of them change their pair, and ``_flip_pair`` puts
its new circle in place with ``insort`` and its handles by a stable sort
on id.  A move that adds a handle of a fresh id to a valid wheel carries
the wheel verdict forward, and ``_flip_pair`` of a wheel pair carries the
flipped sequence; every other verdict is worked out when it is read.
``rotate`` renames every circle and handle, so it goes through the public
constructor, which sorts.

A trace holds each step's checked params and its checked target as dicts,
shared (do not mutate them; a step or trace is not hashable); only
``trace_to_text`` and ``trace_from_text`` touch JSON, once per file line.
The checks live on the dataclasses: building a ``MoveStep`` checks its
params, and building a ``MoveTrace`` checks its target, so a trace built
in memory, parsed or recorded is refused the same way.
"""

from __future__ import annotations

import inspect
import json
import re
from bisect import bisect_left, bisect_right, insort
from dataclasses import InitVar, dataclass
from operator import attrgetter

from .datum import (KirbyDatum, TwoHandle, _in_order, datum_hash, link_key, make_datum,
                    validate_cork_pair, wheel_sequence, CorkPair)
from .errors import (BadLinkingError, CorkCalcError, DuplicateIdError,
                     HandleNotFoundError, HashMismatchError, IllegalMoveError,
                     NotBlowdownableError, NotCancellableError, NotSeparatedError,
                     NotSplitError, NotWheelFamilyError, UnknownGeneratorError)
from .sequences import STAR, ZERO, check_wheel, is_int, pair_ids, pair_index, rotation_ids, shift
from .words import Word, parse_word, single

FRONT = "front"
BACK = "back"


def _require_handle(d: KirbyDatum, hid: str) -> TwoHandle:
    h = d.handle(hid)
    if h is None:
        raise HandleNotFoundError(f"no 2-handle named {hid}")
    return h


def _require_generator(d: KirbyDatum, g: str) -> str:
    if g not in d.one_handles:
        raise HandleNotFoundError(f"no dotted circle named {g}")
    return g


def _require_wheel(d: KirbyDatum) -> str:
    seq = wheel_sequence(d)
    if seq is None:
        raise NotWheelFamilyError("datum carries no valid wheel-family metadata")
    return seq


_WHEEL_KEYS = ("family", "sequence", "n", "m", "i")


def _drop_wheel_meta_if_touched(d: KirbyDatum, touched_ids: set[str]) -> tuple:
    """``d.meta`` itself, or without its wheel keys when ``touched_ids``
    meets a pair of d's valid wheel (``pair_index``); sorted either way."""
    seq = wheel_sequence(d)
    if seq is None or not any(pair is not None and pair[0] < len(seq)
                              for pair in map(pair_index, touched_ids)):
        return d.meta
    return tuple(item for item in d.meta if item[0] not in _WHEEL_KEYS)


def _store(links: dict) -> tuple:
    """The pair store of a dict keyed by ``link_key`` pairs, with int
    values: its nonzero entries, sorted, as ``KirbyDatum`` keeps them."""
    return tuple(sorted(item for item in links.items() if item[1]))


_by_id = attrgetter("id")


def _with_handle(d: KirbyDatum, handle: TwoHandle, links: tuple) -> KirbyDatum:
    """d with a 2-handle of a fresh id inserted in id order.  A fresh id
    cannot break a valid wheel, so d's valid wheel verdict carries over; an
    invalid one does not, since the new handle may repair it."""
    handles = list(d.two_handles)
    insort(handles, handle, key=_by_id)
    return _in_order(d.one_handles, tuple(handles), d.three_handles, d.meta, links,
                     wheel_sequence(d))


# --- handle slides ------------------------------------------------------------

def slide_2_over_2(d: KirbyDatum, h1: str, h2: str, sign: int) -> KirbyDatum:
    """Slide 2-handle h1 over h2 (band at the word end)."""
    if h1 == h2:
        raise IllegalMoveError("cannot slide a handle over itself")
    if sign not in (1, -1):
        raise IllegalMoveError("slide sign must be +1 or -1")
    x = _require_handle(d, h1)
    y = _require_handle(d, h2)

    lk12 = d.lk(h1, h2)
    links = dict(d.links)
    for z, value in d.partners(h2).items():
        if z not in (h1, h2):
            key = link_key(h1, z)
            links[key] = links.get(key, 0) + sign * value
    links[link_key(h1, h2)] = lk12 + sign * y.framing
    new_x = TwoHandle(h1, x.word * y.word ** sign, x.framing + y.framing + 2 * sign * lk12)
    out = tuple(new_x if h.id == h1 else h for h in d.two_handles)
    return _in_order(d.one_handles, out, d.three_handles,
                     _drop_wheel_meta_if_touched(d, {h1}), _store(links))


def slide_2_over_1(d: KirbyDatum, h: str, g: str, sign: int, end: str = BACK) -> KirbyDatum:
    """Reroute 2-handle h once through the dotted circle g.

    The word gains g^sign at the chosen end, which moves lk(h, g) with it;
    framings and 2-handle linkings are untouched.
    """
    if sign not in (1, -1):
        raise IllegalMoveError("slide sign must be +1 or -1")
    if end not in (FRONT, BACK):
        raise IllegalMoveError(f"end must be '{FRONT}' or '{BACK}'")
    handle = _require_handle(d, h)
    _require_generator(d, g)
    letter = ((g, sign),)
    new_word = Word(letter + handle.word.letters if end == FRONT
                    else handle.word.letters + letter)
    new_handle = TwoHandle(h, new_word, handle.framing)
    out = tuple(new_handle if x.id == h else x for x in d.two_handles)
    return _in_order(d.one_handles, out, d.three_handles,
                     _drop_wheel_meta_if_touched(d, {h}), d.links)


# --- cancellations --------------------------------------------------------------

def cancel_1_2(d: KirbyDatum, g: str, h: str) -> KirbyDatum:
    """Cancel the dotted circle g against the 2-handle h passing it once.

    Every other 2-handle x with a g-letter is slid over h, net
    S_x = -s0 * (exponent sum of g in x) times, where h's word is g^s0, and
    the pair is erased; ids assumed distinct, as ``validate`` requires.
    """
    _require_generator(d, g)
    handle = _require_handle(d, h)
    if not handle.word.is_single(g):
        raise NotCancellableError(
            f"word of {h} does not reduce to a single pass through {g}")
    s0, f = handle.word.letters[0][1], handle.framing

    # lk(h, x) of a slid x is read by every handle slid after it
    partners = dict(d.partners(h))
    links = dict(d.links)
    survivors = []
    touched = {g, h}
    for x in d.two_handles:
        if x.id != h and any(l == g for l, _ in x.word.letters):
            s, lk = -s0 * x.word.exponent_sum(g), partners.get(x.id, 0)
            for y, value in partners.items():
                if y not in (x.id, h):
                    key = link_key(x.id, y)
                    links[key] = links.get(key, 0) + s * value
            partners[x.id] = lk + s * f
            x = TwoHandle(x.id, x.word.delete_generator(g), x.framing + 2 * s * lk + s * s * f)
            touched.add(x.id)
        if x.id != h:
            survivors.append(x)

    links = {k: v for k, v in links.items() if h not in k}
    ones = tuple(u for u in d.one_handles if u != g)
    return _in_order(ones, tuple(survivors), d.three_handles,
                     _drop_wheel_meta_if_touched(d, touched), _store(links))


def remove_split_zero_handle(d: KirbyDatum, h: str) -> KirbyDatum:
    """Remove a split 0-framed 2-handle, capping it with a modeled 3-handle.

    The explicit 3-handle count is unchanged: the fused move attaches the
    3-handle and cancels it against the removed 2-handle in one step.
    """
    handle = _require_handle(d, h)
    if handle.word or handle.framing != 0 or d.partners(h):
        raise NotSplitError(f"{h} is not a split 0-framed handle")
    survivors = tuple(x for x in d.two_handles if x.id != h)
    # h has no stored partner, so the store stays as it is
    return _in_order(d.one_handles, survivors, d.three_handles,
                     _drop_wheel_meta_if_touched(d, {h}), d.links)


# --- attachments and blow moves -------------------------------------------------

def attach_2handle(d: KirbyDatum, id: str, word, framing: int,
                   linking: dict[str, int] | None = None) -> KirbyDatum:
    """Attach a new 2-handle along a token word with prescribed framing/linkings."""
    if d.handle(id) is not None or id in d.one_handles:
        raise DuplicateIdError(f"id {id} already in use")
    w = parse_word(word)
    unknown = w.generators() - set(d.one_handles)
    if unknown:
        raise UnknownGeneratorError(f"word uses unknown generators {sorted(unknown)}")
    links = dict(linking or {})
    for key in links:
        if d.handle(key) is None:
            raise BadLinkingError(f"linking names {key}, which is not a 2-handle")
    store = dict(d.links) | {link_key(id, key): int(v) for key, v in links.items()}
    return _with_handle(d, TwoHandle(id, w, int(framing)), _store(store))


def blow_up(d: KirbyDatum, id: str, sign: int) -> KirbyDatum:
    """Add a split +-1-framed unknotted 2-handle."""
    if sign not in (1, -1):
        raise IllegalMoveError("blow-up sign must be +1 or -1")
    if d.handle(id) is not None or id in d.one_handles:
        raise DuplicateIdError(f"id {id} already in use")
    return _with_handle(d, TwoHandle(id, Word(), sign), d.links)


def blowdownable(handle: TwoHandle) -> bool:
    """The blow-down rule: the handle has an empty word and framing +-1."""
    return not handle.word and handle.framing in (1, -1)


def blow_down(d: KirbyDatum, h: str) -> KirbyDatum:
    """Remove a ``blowdownable`` 2-handle, twisting the survivors.  Only
    the handles that link it are rebuilt, found by id in the sorted handles;
    a survivor that does not link it keeps its object.  The pair store is
    sorted again only when the handle has two partners or more, whose pairs
    change."""
    handle = _require_handle(d, h)
    if not blowdownable(handle):
        raise NotBlowdownableError(f"{h} is not a +-1-framed empty-word handle")
    eps = handle.framing
    k = d.partners(h)
    if len(k) < 2:
        links = tuple(item for item in d.links if h not in item[0])
    else:
        ks = sorted(k.items())
        store = {pair: v for pair, v in d.links if h not in pair}
        for i, (x, kx) in enumerate(ks):
            for y, ky in ks[i + 1:]:
                key = link_key(x, y)
                store[key] = store.get(key, 0) - eps * kx * ky
        links = _store(store)
    handles = d.two_handles
    out = list(handles)
    for x, kx in k.items():
        if d.handle(x) is not None:  # a 2-handle id, comparable with the others
            at = bisect_left(handles, x, key=_by_id)
            while at < len(handles) and handles[at].id == x:
                e = handles[at]
                out[at] = TwoHandle(x, e.word, e.framing - eps * kx ** 2)
                at += 1
    del out[bisect_left(handles, h, key=_by_id):bisect_right(handles, h, key=_by_id)]
    return _in_order(d.one_handles, tuple(out), d.three_handles,
                     _drop_wheel_meta_if_touched(d, {h} | set(k)), links)


def minus_one_sphere_present(d: KirbyDatum) -> bool:
    """A ``blowdownable`` handle of framing -1 is present: it caps off to a
    sphere of square -1, which obstructs any Stein structure."""
    return any(h.framing == -1 and blowdownable(h) for h in d.two_handles)


# --- cork twists -----------------------------------------------------------------

def _flip_pair(d: KirbyDatum, dotted: str, framed: str) -> KirbyDatum:
    """Exchange roles in a (dotted circle, 0-framed single-pass handle) pair,
    rewriting external attachments.  Geometric linking numbers are preserved;
    only words and the dotted/framed role sets change, and a wheel pair's
    sequence entry flips with its roles."""
    _require_generator(d, dotted)
    h0 = _require_handle(d, framed)
    if h0.framing != 0:
        raise NotSeparatedError(f"{framed} must have framing 0 to twist")
    if not h0.word.is_single(dotted):
        raise NotSeparatedError(f"{framed} must pass {dotted} exactly once to twist")
    sigma = h0.word.letters[0][1]

    # pairs with the framed handle turn into letters of the new dotted
    # circle; passes through the old one turn into pairs with its new handle.
    # Each handle's letters are read once, for its exponent sum on the dotted
    # circle and for a pass through it.  A handle that does neither keeps its
    # object; a stored pair entry of it with the dotted name is still written
    # (as 0, so the store drops it).  Its linking with the framed handle is
    # the store's, read through ``d.lk`` where either id names a dotted circle.
    circles = set(d.one_handles)
    plain = framed not in circles
    stored = d.partners(framed)
    links = {k: v for k, v in d.links if framed not in k}
    written = set(d.partners(dotted))  # ids whose pair entry with dotted is in links
    new_handles = [TwoHandle(dotted, single(framed) ** sigma, 0)]
    for e in d.two_handles:
        hid = e.id
        if hid == framed:
            continue
        s = hit = 0
        for g, sign in e.word.letters:
            if g == dotted:
                s, hit = s + sign, 1
        if s or hid in written:
            links[link_key(dotted, hid)] = s
            written.add(hid)
        k = stored.get(hid, 0) if plain and hid not in circles else d.lk(hid, framed)
        if k or hit:
            letters = tuple(l for l in e.word.letters if l[0] != dotted)
            e = TwoHandle(hid, Word(letters + ((framed, 1 if k > 0 else -1),) * abs(k)),
                          e.framing)
        new_handles.append(e)

    # the circles and handles in canonical order; a wheel pair's flip keeps
    # the wheel valid, so its flipped sequence is the verdict
    ones = [u for u in d.one_handles if u != dotted]
    insort(ones, framed)
    meta, flipped = d.meta, None
    seq, pair = wheel_sequence(d), pair_index(dotted)
    if seq is not None and pair is not None:
        j, sym = pair
        if j < len(seq) and seq[j] == sym and pair_ids(j, sym)[1] == framed:
            flipped = seq[:j] + (ZERO if sym == STAR else STAR) + seq[j + 1:]
            meta = tuple((key, flipped if key == "sequence" else v) for key, v in d.meta)
    return _in_order(tuple(ones), tuple(sorted(new_handles, key=_by_id)), d.three_handles,
                     meta, _store(links), wheel=flipped)


def cork_twist_pair(d: KirbyDatum, dotted: str, zero_handle: str, m: int = 1) -> KirbyDatum:
    """Twist an algebraically separated cork pair (dot/0 exchange)."""
    problems = validate_cork_pair(d, CorkPair(dotted, zero_handle, m))
    if problems:
        raise NotSeparatedError("; ".join(problems))
    return _flip_pair(d, dotted, zero_handle)


def twist_pairs(d: KirbyDatum, positions) -> KirbyDatum:
    """Cork-twist the wheel pairs at the given distinct positions, one after
    another; handles attached to the twisted pairs are rewritten."""
    seq = _require_wheel(d)
    for j in positions:
        d = _flip_pair(d, *pair_ids(j, seq[j]))
    return d


def twist_wheel(d: KirbyDatum, i: int) -> KirbyDatum:
    """Cork twist of a wheel-family datum by the i-th rotation power.

    Realized as the composite of pair twists at every position where the
    shifted dot pattern disagrees with the current one.
    """
    seq = _require_wheel(d)
    target = shift(seq, i)
    return twist_pairs(d, [j for j, sym in enumerate(seq) if target[j] != sym])


def rotate(d: KirbyDatum, i: int) -> KirbyDatum:
    """Relabel wheel pairs by the rotation ``sequences.rotation_ids``.

    The result is the datum of the shifted sequence (the rotation of
    ``build_X(n, m, x)`` by i is ``build_X(n, m, shift(x, i))``); the
    rotation is an automorphism exactly when the shift fixes the sequence.
    """
    seq = _require_wheel(d)
    mapping = rotation_ids(len(seq), i)
    rename = mapping.get
    ones = tuple(rename(g, g) for g in d.one_handles)
    handles = [TwoHandle(rename(h.id, h.id), h.word.rename(mapping), h.framing)
               for h in d.two_handles]
    links = {(rename(x, x), rename(y, y)): v for (x, y), v in d.links}
    meta = d.meta_map | {"sequence": shift(seq, i)}
    return make_datum(ones, handles, d.three_handles, meta, links)


# --- traces and replay ------------------------------------------------------------

TRACE_FORMAT = "corkcalc-trace/1"


@dataclass(frozen=True)
class MoveStep:
    """One step of a trace.  Building a step checks its move and params
    against ``MOVES`` and refuses a bad one with ``CorkCalcError``, naming
    the step as ``what``; ``replay`` applies a step unchecked.  ``what`` is
    None only where the caller has just checked the same params itself."""
    move: str
    params: dict  # the checked parameter object (shared: do not mutate)
    pre: str
    post: str
    what: InitVar[str | None] = "trace step"

    def __post_init__(self, what):
        if what is not None:
            _check_params(self.move, self.params, what)


@dataclass(frozen=True)
class MoveTrace:
    """A hash-chained trace.  Building one checks its declared target with
    ``_target`` and keeps the checked copy; a bad one raises ``CorkCalcError``."""
    initial: str
    steps: tuple[MoveStep, ...] = ()
    target: dict | None = None  # the checked declared target (shared: do not mutate)

    def __post_init__(self):
        if self.target is not None:
            object.__setattr__(self, "target", _target(self.target))

    @property
    def final(self) -> str:
        return self.steps[-1].post if self.steps else self.initial


def _is_word(v) -> bool:
    try:
        return isinstance(v, list) and parse_word(v) is not None
    except ValueError:
        return False


# parameter types: (description, check)
_STR = ("a string", lambda v: isinstance(v, str))
_INT = ("an integer", is_int)
_SIGN = ("+1 or -1", lambda v: is_int(v) and v in (1, -1))
_END = (f"\"{FRONT}\" or \"{BACK}\"", lambda v: v in (FRONT, BACK))
_WORD = ("a list of letters such as \"a\" or \"-a\"", _is_word)
_LINKS = ("an object of integers", lambda v: isinstance(v, dict)
          and all(is_int(x) for x in v.values()))

# move name -> (function, the type of each parameter after the datum); a
# trace step calls the function with its params as keywords, and may leave
# out exactly the parameters the function gives a default
MOVES = {
    "slide_2_over_2": (slide_2_over_2, {"h1": _STR, "h2": _STR, "sign": _SIGN}),
    "slide_2_over_1": (slide_2_over_1, {"h": _STR, "g": _STR, "sign": _SIGN, "end": _END}),
    "cancel_1_2": (cancel_1_2, {"g": _STR, "h": _STR}),
    "remove_split_zero_handle": (remove_split_zero_handle, {"h": _STR}),
    "attach_2handle": (attach_2handle, {"id": _STR, "word": _WORD, "framing": _INT,
                                        "linking": _LINKS}),
    "blow_up": (blow_up, {"id": _STR, "sign": _SIGN}),
    "blow_down": (blow_down, {"h": _STR}),
    "cork_twist_pair": (cork_twist_pair, {"dotted": _STR, "zero_handle": _STR, "m": _INT}),
    "twist_wheel": (twist_wheel, {"i": _INT}),
    "rotate": (rotate, {"i": _INT}),
}


# move name -> the params a step must give: those its function has no default for
_REQUIRED = {move: [k for k in types if inspect.signature(function).parameters[k].default
                    is inspect.Parameter.empty]
             for move, (function, types) in MOVES.items()}


def _check_params(move, params, what: str = "apply_move") -> None:
    """Refuse, with ``CorkCalcError``, a move ``MOVES`` does not name, and
    params that are not an object of the move's parameters, each of its
    type, with every one its function has no default for."""
    if not isinstance(move, str) or move not in MOVES:
        raise IllegalMoveError(f"{what}: unknown move {move!r}")
    if not isinstance(params, dict):
        raise CorkCalcError(f"{what}: params must be a JSON object")
    types = MOVES[move][1]
    # each refusal is worked out only once a guard fails: a valid step
    # formats no message and sorts nothing
    if not params.keys() <= types.keys():
        unknown = [k for k in sorted(params) if k not in types]
        raise CorkCalcError(f"{what} ({move}): unknown param {', '.join(unknown)}")
    if not all(k in params for k in _REQUIRED[move]):
        _require_keys(params, _REQUIRED[move], f"{what} ({move}) params")
    for key, (kind, check) in types.items():
        if key in params and not check(params[key]):
            raise CorkCalcError(f"{what} ({move}): param {key} must be {kind}")


def apply_move(d: KirbyDatum, move: str, params: dict) -> KirbyDatum:
    _check_params(move, params)
    return MOVES[move][0](d, **params)


class Recorder:
    """Applies moves while recording a hash-chained trace."""

    def __init__(self, initial: KirbyDatum, target: dict | None = None):
        self.current = initial
        self._steps: list[MoveStep] = []
        self._initial_hash = self._current_hash = datum_hash(initial)
        self._target = None if target is None else _target(target)

    def apply(self, move: str, **params) -> KirbyDatum:
        result = apply_move(self.current, move, params)
        post = datum_hash(result)
        self._steps.append(MoveStep(move, params, self._current_hash, post,
                                    what=None))  # apply_move checked the params
        self.current, self._current_hash = result, post
        return result

    def trace(self) -> MoveTrace:
        return MoveTrace(self._initial_hash, tuple(self._steps), self._target)


def replay(initial: KirbyDatum, trace: MoveTrace) -> KirbyDatum:
    """Deterministically re-run a trace, verifying the hash chain.

    Each state is hashed once; a step's ``pre`` must equal the hash last verified.
    Params are not checked again: every ``MoveStep`` was checked when built.
    A move the datum refuses re-raises its ``CorkCalcError`` with the
    ``step_index`` of the refused step set."""
    current = initial
    verified = datum_hash(current)
    if verified != trace.initial:
        raise HashMismatchError("initial datum does not match trace header", -1)
    for idx, step in enumerate(trace.steps):
        if verified != step.pre:
            raise HashMismatchError(f"pre-hash mismatch at step {idx}", idx)
        try:
            current = MOVES[step.move][0](current, **step.params)
        except CorkCalcError as e:
            e.step_index = idx
            raise
        verified = datum_hash(current)
        if verified != step.post:
            raise HashMismatchError(f"post-hash mismatch at step {idx}", idx)
    return current


def trace_to_text(trace: MoveTrace) -> str:
    lines = [json.dumps({"format": TRACE_FORMAT, "initial": trace.initial,
                         "target": trace.target}, sort_keys=True)]
    for s in trace.steps:
        lines.append(json.dumps({"move": s.move, "params": s.params,
                                 "pre": s.pre, "post": s.post}, sort_keys=True))
    return "\n".join(lines) + "\n"


def _json_object(line: str, what: str) -> dict:
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as e:  # also an overlong integer, deep nesting
        raise CorkCalcError(f"{what} is not valid JSON: {e}") from None
    if not isinstance(obj, dict):
        raise CorkCalcError(f"{what} must be a JSON object")
    return obj


def _require_keys(obj: dict, keys, what: str) -> None:
    missing = [k for k in keys if k not in obj]
    if missing:
        raise CorkCalcError(f"{what} lacks {', '.join(missing)}")


_HASH = re.compile("[0-9a-f]{64}")  # what datum_hash writes


def _require_hashes(obj: dict, keys, what: str) -> None:
    for key in keys:
        if not (isinstance(obj[key], str) and _HASH.fullmatch(obj[key])):
            raise CorkCalcError(f"{what}: {key} must be a datum hash "
                                "(64 lowercase hex digits)")


def _target(target) -> dict:
    """A copy of a declared target wheel, checked: ``n``, ``m`` and
    ``sequence`` that pass ``check_wheel``, and an optional ``family``
    string."""
    if not (isinstance(target, dict) and set(target) <= {"family", "n", "m", "sequence"}
            and isinstance(target.get("family", ""), str)):
        raise CorkCalcError("trace target must be an object with keys n, m, sequence "
                            "and an optional family string, and no other key")
    check_wheel(target.get("n"), target.get("m"), target.get("sequence"), "trace target")
    return dict(target)


def trace_from_text(text: str) -> MoveTrace:
    """Parse a trace file; any malformed line raises ``CorkCalcError``."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise CorkCalcError("empty trace file")
    header = _json_object(lines[0], "trace header")
    if header.get("format") != TRACE_FORMAT:
        raise CorkCalcError(f"unsupported trace format {header.get('format')!r}")
    _require_keys(header, ("initial",), "trace header")
    _require_hashes(header, ("initial",), "trace header")
    steps = []
    for idx, ln in enumerate(lines[1:]):
        what = f"trace step {idx}"
        obj = _json_object(ln, what)
        _require_keys(obj, ("move", "params", "pre", "post"), what)
        _require_hashes(obj, ("pre", "post"), what)
        steps.append(MoveStep(obj["move"], obj["params"], obj["pre"], obj["post"], what))
    return MoveTrace(header["initial"], tuple(steps), header.get("target"))
