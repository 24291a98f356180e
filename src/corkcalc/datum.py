"""Handle-decomposition data ("Kirby data") and their canonical form.

A datum records dotted circles (1-handles, one free-group generator each),
2-handles (attaching word over the generators and integer framing), the
linking numbers between 2-handles, and a 3-handle count.  The abstraction
deliberately forgets planar knotting: words and linking numbers are the
whole state.  Each linking number is stored once: a 2-handle pair's in the
``links`` store under the unordered pair, a 2-handle's with a dotted circle
as the exponent sum of its word, and dotted circles (an unlink) never link
each other.  ``KirbyDatum.lk`` reads all three.

A wheel datum's ``meta`` names its ``{*,0}``-sequence.  ``wheel_sequence``
reads it, and ``validate`` checks it against the circle pairs that
``sequences.pair_ids`` names; both apply the one rule of
``_wheel_violations``.

Canonical serialization (sorted handles, normalized words, canonical JSON)
is the basis for file round-trips and trace hashing.  The ``/1`` format
lists every linking of a 2-handle on its record, so each pair is written on
both handles and each dotted linking next to the word; ``from_canonical``
is the one place where those copies meet.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterable, Mapping

from .errors import DatumFormatError
from .linalg import IntMatrix
from .sequences import STAR, ZERO, pair_ids
from .words import Word, parse_word

DATUM_FORMAT = "corkcalc-datum/1"

Pair = tuple[str, str]


def link_key(x: str, y: str) -> Pair:
    """The store key of the unordered pair {x, y}."""
    return (x, y) if x <= y else (y, x)


@dataclass(frozen=True)
class TwoHandle:
    id: str
    word: Word
    framing: int


def two_handle(hid: str, letters, framing: int) -> TwoHandle:
    w = Word(tuple(letters)) if not isinstance(letters, Word) else letters
    return TwoHandle(hid, w, int(framing))


@dataclass(frozen=True)
class KirbyDatum:
    one_handles: tuple[str, ...] = ()
    two_handles: tuple[TwoHandle, ...] = ()
    three_handles: int = 0
    meta: tuple[tuple[str, Any], ...] = ()
    # each unordered 2-handle pair once, sorted, zero values dropped
    links: tuple[tuple[Pair, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "one_handles", tuple(sorted(self.one_handles)))
        object.__setattr__(self, "two_handles",
                           tuple(sorted(self.two_handles, key=lambda h: h.id)))
        if isinstance(self.meta, dict):
            object.__setattr__(self, "meta", tuple(sorted(self.meta.items())))
        items = self.links.items() if isinstance(self.links, Mapping) else self.links
        links = tuple(sorted((link_key(*k), int(v)) for k, v in items if v))
        if len({k for k, _ in links}) != len(links):
            raise ValueError("a linking pair is given twice")
        object.__setattr__(self, "links", links)

    @property
    def meta_map(self) -> dict[str, Any]:
        return dict(self.meta)

    @property
    def handle_ids(self) -> tuple[str, ...]:
        return tuple(h.id for h in self.two_handles)

    def handle(self, hid: str) -> TwoHandle | None:
        for h in self.two_handles:
            if h.id == hid:
                return h
        return None

    @cached_property
    def _link_map(self) -> dict[Pair, int]:
        return dict(self.links)

    def lk(self, x: str, y: str) -> int:
        """Linking number of two components: the stored value for two
        2-handles, the word's exponent sum for a dotted circle and a
        2-handle, zero for two dotted circles."""
        if y in self.one_handles:
            x, y = y, x
        if x in self.one_handles:
            h = self.handle(y)
            return 0 if h is None else h.word.exponent_sum(x)
        return self._link_map.get(link_key(x, y), 0)

    def replace(self, **kw) -> "KirbyDatum":
        return dataclasses.replace(self, **kw)


def make_datum(one_handles: Iterable[str] = (),
               two_handles: Iterable[TwoHandle] = (),
               three_handles: int = 0,
               meta: Mapping[str, Any] | None = None,
               links: Mapping[Pair, int] | None = None) -> KirbyDatum:
    return KirbyDatum(tuple(one_handles), tuple(two_handles), three_handles,
                      tuple(sorted((meta or {}).items())), links or ())


# --- invariant checking -----------------------------------------------------

@dataclass(frozen=True)
class Violation:
    code: str
    message: str
    ids: tuple[str, ...] = ()


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self):
        if self.ok:
            return "valid"
        return "\n".join(f"[{v.code}] {v.message}" for v in self.violations)


def validate(d: KirbyDatum) -> ValidationReport:
    """Check all datum invariants; violations are report entries, not errors."""
    out: list[Violation] = []
    gens = set(d.one_handles)
    hids = set(d.handle_ids)

    if len(gens) != len(d.one_handles):
        out.append(Violation("DUPLICATE_ID", "duplicate dotted-circle ids"))
    if len(hids) != len(d.two_handles):
        out.append(Violation("DUPLICATE_ID", "duplicate 2-handle ids"))
    if gens & hids:
        out.append(Violation("DUPLICATE_ID",
                             f"ids shared between dotted circles and 2-handles: {sorted(gens & hids)}"))
    if d.three_handles < 0:
        out.append(Violation("BAD_THREE_HANDLES", "negative 3-handle count"))

    for h in d.two_handles:
        for g in h.word.generators():
            if g not in gens:
                out.append(Violation("UNKNOWN_GENERATOR",
                                     f"word of {h.id} uses unknown generator {g}", (h.id, g)))
    for (x, y), _ in d.links:
        if x == y:
            out.append(Violation("SELF_LINKING", f"{x} records a linking with itself", (x,)))
        unknown = sorted({x, y} - hids)
        if unknown:
            out.append(Violation("LINKING_UNKNOWN_ID",
                                 f"linking of {x} and {y} names {', '.join(unknown)}, "
                                 "which is not a 2-handle", (x, y)))

    out.extend(_wheel_violations(d))
    return ValidationReport(tuple(out))


def _wheel_violations(d: KirbyDatum) -> list[Violation]:
    """The one validity rule of wheel metadata, empty for a datum without a
    ``sequence``: the sequence is a nonempty string over ``*0``, ``n`` is an
    integer (not a boolean) equal to its length, and each pair j has the
    dotted circle and the 0-framed 2-handle passing it once that
    ``pair_ids(j, sequence[j])`` names."""
    meta = d.meta_map
    seq, n = meta.get("sequence"), meta.get("n")
    if seq is None:
        return []
    if (not isinstance(seq, str) or not seq or not set(seq) <= {STAR, ZERO}
            or not isinstance(n, int) or isinstance(n, bool) or n != len(seq)):
        return [Violation("META_INCONSISTENT", f"bad wheel metadata {meta}")]
    gens = set(d.one_handles)
    handles = {h.id: h for h in d.two_handles}
    out = []
    for j, sym in enumerate(seq):
        dotted, framed = pair_ids(j, sym)
        if dotted not in gens:
            out.append(Violation("META_INCONSISTENT",
                                 f"pair {j}: expected dotted circle {dotted}", (dotted,)))
            continue
        h = handles.get(framed)
        if h is None:
            out.append(Violation("META_INCONSISTENT",
                                 f"pair {j}: expected 2-handle {framed}", (framed,)))
            continue
        if abs(h.word.exponent_sum(dotted)) != 1:
            out.append(Violation("META_INCONSISTENT",
                                 f"pair {j}: {framed} must pass {dotted} once", (framed, dotted)))
        if h.framing != 0:
            out.append(Violation("META_INCONSISTENT",
                                 f"pair {j}: {framed} must have framing 0", (framed,)))
    return out


def wheel_sequence(d: KirbyDatum) -> str | None:
    """The datum's wheel sequence, or None when its metadata names no wheel
    or breaks the rule that ``validate`` reports as META_INCONSISTENT."""
    seq = d.meta_map.get("sequence")
    return None if seq is None or _wheel_violations(d) else seq


# --- cork pairs ---------------------------------------------------------------

@dataclass(frozen=True)
class CorkPair:
    dotted: str
    zero_handle: str
    m: int = 1


def validate_cork_pair(d: KirbyDatum, pair: CorkPair) -> list[str]:
    """Check the pair invariants: single-letter 0-framed handle on the dotted
    circle, algebraically separated from every other 2-handle."""
    problems = []
    if pair.m < 1:
        problems.append("m must be a positive integer")
    if pair.dotted not in d.one_handles:
        return problems + [f"{pair.dotted} is not a dotted circle"]
    h = d.handle(pair.zero_handle)
    if h is None:
        return problems + [f"{pair.zero_handle} is not a 2-handle"]
    if h.framing != 0:
        problems.append(f"{h.id} has framing {h.framing}, expected 0")
    if not h.word.is_single(pair.dotted):
        problems.append(f"word of {h.id} is not a single pass through {pair.dotted}")
    for other in d.two_handles:
        if other.id != h.id and pair.dotted in other.word.generators():
            problems.append(f"{other.id} also passes through {pair.dotted}")
    for other_id in sorted(linking_records(d)[h.id]):
        if other_id != pair.dotted:
            problems.append(f"{h.id} links {other_id}")
    return problems


# --- matrices -----------------------------------------------------------------

def exponent_matrix(d: KirbyDatum):
    """Matrix of word exponent sums: rows = dotted circles, cols = 2-handles.

    Returns (matrix, row_ids, col_ids); ids are sorted for determinism.
    """
    row_ids = tuple(d.one_handles)
    col_ids = d.handle_ids
    sums = [h.word.exponents() for h in d.two_handles]
    entries = [e.get(g, 0) for g in row_ids for e in sums]
    return IntMatrix(len(row_ids), len(col_ids), tuple(entries)), row_ids, col_ids


def full_linking_matrix(d: KirbyDatum):
    """Symmetric linking matrix over all components.

    Dotted circles convert to 0-framed components (diagonal 0); 2-handles
    carry their framing on the diagonal; every off-diagonal entry is
    ``d.lk``, filled from where each linking is stored: a word's exponent
    sums on the dotted circles (a letter on any other name is ignored), and
    the ``links`` entries of two distinct 2-handles.  Ids are assumed
    distinct, as ``validate`` requires.  Returns (matrix, component order).
    """
    order = tuple(d.one_handles) + d.handle_ids
    n, g = len(order), len(d.one_handles)
    dotted = {x: k for k, x in enumerate(d.one_handles)}
    handle = {x: k for k, x in enumerate(order) if k >= g}
    entries = [0] * (n * n)
    for i, h in enumerate(d.two_handles, start=g):
        entries[i * n + i] = h.framing
        for x, e in h.word.exponents().items():
            if x in dotted:
                entries[i * n + dotted[x]] = entries[dotted[x] * n + i] = e
    for (x, y), v in d.links:
        if x != y and x in handle and y in handle:
            i, j = handle[x], handle[y]
            entries[i * n + j] = entries[j * n + i] = v
    return IntMatrix(n, n, tuple(entries)), order


# --- canonical form, hashing, file round trip ---------------------------------

def linking_records(d: KirbyDatum) -> dict[str, dict[str, int]]:
    """Each 2-handle's nonzero linkings with the other components, by id:
    its word's exponent sums for dotted circles, the store for 2-handles."""
    records = {h.id: {g: e for g, e in h.word.exponents().items() if e}
               for h in d.two_handles}
    for (x, y), v in d.links:
        records.setdefault(x, {})[y] = v
        records.setdefault(y, {})[x] = v
    return records


def canonical_form(d: KirbyDatum) -> dict:
    records = linking_records(d)
    handles = [{"id": h.id, "word": h.word.serialize(), "framing": h.framing,
                "linking": [[k, v] for k, v in sorted(records[h.id].items())]}
               for h in d.two_handles]
    return {"format": DATUM_FORMAT, "one_handles": list(d.one_handles),
            "two_handles": handles, "three_handles": d.three_handles,
            "meta": {k: v for k, v in d.meta}}


def canonical_json(d: KirbyDatum) -> str:
    return json.dumps(canonical_form(d), sort_keys=True, separators=(",", ":"))


def datum_hash(d: KirbyDatum) -> str:
    return hashlib.sha256(canonical_json(d).encode("utf-8")).hexdigest()


def from_canonical(obj: Any) -> KirbyDatum:
    """Parse the canonical dict form, strictly."""
    if not isinstance(obj, dict):
        raise DatumFormatError("datum document must be a JSON object")
    expected = {"format", "one_handles", "two_handles", "three_handles", "meta"}
    if set(obj) != expected:
        raise DatumFormatError(f"datum keys must be exactly {sorted(expected)}, got {sorted(obj)}")
    if obj["format"] != DATUM_FORMAT:
        raise DatumFormatError(f"unsupported datum format {obj['format']!r}")
    ones = obj["one_handles"]
    if not isinstance(ones, list) or not all(isinstance(g, str) and g for g in ones):
        raise DatumFormatError("one_handles must be a list of nonempty strings")
    handles, records = [], {}
    if not isinstance(obj["two_handles"], list):
        raise DatumFormatError("two_handles must be a list")
    for rec in obj["two_handles"]:
        if not isinstance(rec, dict) or set(rec) != {"id", "word", "framing", "linking"}:
            raise DatumFormatError(f"bad 2-handle record {rec!r}")
        if not isinstance(rec["id"], str) or not rec["id"]:
            raise DatumFormatError("2-handle id must be a nonempty string")
        if not isinstance(rec["framing"], int) or isinstance(rec["framing"], bool):
            raise DatumFormatError(f"framing of {rec['id']} must be an integer")
        try:
            w = parse_word(rec["word"])
        except (ValueError, TypeError) as e:
            raise DatumFormatError(f"bad word for {rec['id']}: {e}") from e
        entries = rec["linking"]
        if not isinstance(entries, list) or not all(
                isinstance(e, list) and len(e) == 2 and isinstance(e[0], str)
                and isinstance(e[1], int) and not isinstance(e[1], bool) for e in entries):
            raise DatumFormatError(f"linking of {rec['id']} must be a list of [id, integer]")
        links = dict(entries)
        if len(links) != len(entries):
            raise DatumFormatError(f"duplicate linking partner on {rec['id']}")
        handles.append(TwoHandle(rec["id"], w, rec["framing"]))
        records[rec["id"]] = links
    if not isinstance(obj["three_handles"], int) or isinstance(obj["three_handles"], bool):
        raise DatumFormatError("three_handles must be an integer")
    if not isinstance(obj["meta"], dict):
        raise DatumFormatError("meta must be an object")
    return make_datum(ones, handles, obj["three_handles"], obj["meta"],
                      _pair_store(ones, handles, records))


def _pair_store(ones, handles, records) -> dict[Pair, int]:
    """The pair store of a ``/1`` document's linking records.  A record for
    a dotted circle or a word generator must be the word's exponent sum (a
    dotted circle's is left out only when that is 0), and the two records of
    a 2-handle pair must agree; others are kept for ``validate`` to report."""
    store: dict[Pair, int] = {}
    for h in handles:
        links, exps = records[h.id], h.word.exponents()
        for g in sorted(set(ones) | set(exps)):
            if links.get(g, 0) != exps.get(g, 0) and (g in ones or g in links):
                raise DatumFormatError(
                    f"EXPONENT_LINKING_MISMATCH: {h.id} has exponent sum {exps.get(g, 0)} "
                    f"in {g} but records linking {links.get(g, 0)}")
        for other, value in links.items():
            if other in ones or other in exps:
                continue
            mirror = records[other].get(h.id, 0) if other in records else value
            if mirror != value:
                raise DatumFormatError(
                    f"LINKING_ASYMMETRIC: lk({h.id},{other}) = {value} "
                    f"but lk({other},{h.id}) = {mirror}")
            store[link_key(h.id, other)] = value
    return store


def loads(text: str) -> KirbyDatum:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise DatumFormatError(f"invalid JSON: {e.msg}", line=e.lineno) from e
    except (ValueError, RecursionError) as e:  # an overlong integer, deep nesting
        raise DatumFormatError(f"invalid JSON: {e}") from None
    return from_canonical(obj)


def dumps(d: KirbyDatum, indent: int | None = 2) -> str:
    return json.dumps(canonical_form(d), sort_keys=True, indent=indent) + "\n"
