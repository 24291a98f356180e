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
``_wheel_violations``: ``sequences.check_wheel`` of ``n``, ``m`` and
``sequence``, a string ``family``, and any ``i`` an int with 1 <= i < n.

``KirbyDatum(...)`` and ``make_datum`` sort every part and check the pair
store.  ``_in_order`` builds a datum from parts that are already in that
order, sorting and checking nothing: the wheel builders of ``families``
and every move but ``moves.rotate`` use it.  Both paths build the same two
lookups, the first handle of each id and each id's stored partners.  Two
facts are stored on a datum the first time they are worked out: its
``datum_hash`` and its ``wheel_sequence`` verdict.  A caller of
``_in_order`` that knows the datum's wheel is valid hands the verdict
over: ``build_X``, which has just checked it; ``build_W`` and ``build_Z``,
which add meridians of fresh ids to a ``build_C`` wheel; a pair twist of a
wheel pair, with the flipped sequence; and a move that adds a handle of a
fresh id to a valid wheel, which a fresh id cannot break.  An invalid
verdict is never carried, since a new handle may repair the wheel.

The exponent-sum and full linking matrices are written once, as sparse
rows ({column: nonzero} dicts): ``exponent_rows`` and ``linking_rows``.
``invariants`` hands those rows to ``linalg.snf``; ``exponent_matrix``
and ``full_linking_matrix`` read them dense.

Canonical serialization (sorted handles, normalized words, canonical JSON)
is the basis for file round-trips and trace hashing.  The ``/1`` format
lists every linking of a 2-handle on its record, so each pair is written on
both handles and each dotted linking next to the word; ``from_canonical``
is the one place where those copies meet.

``canonical_form`` is the reference for the canonical JSON: ``dumps``
writes it, and ``canonical_json`` has the bytes of ``json.dumps`` of it with
sorted keys and compact separators.  ``canonical_json`` assembles those
bytes from per-handle fragments instead, each stored on its ``TwoHandle``
(moves keep most handle objects, so most fragments are built once per
trace); a handle's stored partners, read from the datum's partner map,
are merged into its fragment per call.  Data the fragments cannot spell
byte for byte go through the reference: duplicate 2-handle ids
(``linking_records`` keys by id, so both handles are written with the
last one's dotted entries; ``validate`` reports them as DUPLICATE_ID), and
an id, generator or number that is not a ``str`` or an ``int``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Any, Iterable, Mapping

from .errors import BadIndexError, DatumFormatError
from .linalg import IntMatrix
from .sequences import check_wheel, is_int, pair_ids
from .words import Word, parse_word

DATUM_FORMAT = "corkcalc-datum/1"
_FORMAT_JSON = json.dumps(DATUM_FORMAT)

Pair = tuple[str, str]


def link_key(x: str, y: str) -> Pair:
    """The store key of the unordered pair {x, y}."""
    return (x, y) if x <= y else (y, x)


# how ``json.dumps`` (ensure_ascii) spells a string and an int, and the
# encoder it builds for sorted keys and compact separators
_json_str = encode_basestring_ascii
_json_int = int.__repr__
_meta_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


@dataclass(frozen=True)
class TwoHandle:
    id: str
    word: Word
    framing: int

    def _spell(self) -> tuple[str, dict[str, str], str, str] | None:
        """This handle's record in the canonical JSON, in parts: the head up
        to its linking list, its dotted entries by generator, the tail after
        the list, and the whole record for a handle with no stored partners.
        None when the parts cannot be spelled exactly: an id or generator
        that is not a ``str`` (the formatters raise TypeError), or a framing
        or exponent sum that is not an ``int``."""
        if type(self.framing) is not int:  # a bool would print as 1, not true
            return None
        try:
            dotted = {g: f"[{_json_str(g)},{_json_int(e)}]"
                      for g, e in self.word.exponents().items() if e}
            head = (f'{{"framing":{_json_int(self.framing)},"id":{_json_str(self.id)},'
                    '"linking":[')
            tail = f'],"word":[{",".join(map(_json_str, self.word.serialize()))}]}}'
        except TypeError:
            return None
        return head, dotted, tail, head + ",".join([dotted[g] for g in sorted(dotted)]) + tail


_UNKNOWN = object()  # a stored fact not worked out yet


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
        meta = dict(self.meta)  # a mapping, or (key, value) pairs
        if len(meta) != len(self.meta):
            raise ValueError("a meta key is given twice")
        object.__setattr__(self, "meta", tuple(sorted(meta.items())))
        items = self.links.items() if isinstance(self.links, Mapping) else self.links
        links = tuple(sorted((link_key(*k), int(v)) for k, v in items if v))
        if len({k for k, _ in links}) != len(links):
            raise ValueError("a linking pair is given twice")
        object.__setattr__(self, "links", links)
        _index(self)

    @property
    def meta_map(self) -> dict[str, Any]:
        return dict(self.meta)

    @property
    def handle_ids(self) -> tuple[str, ...]:
        return tuple(h.id for h in self.two_handles)

    def handle(self, hid: str) -> TwoHandle | None:
        """The first 2-handle with id ``hid``, or None."""
        return self._by_id.get(hid)

    def partners(self, hid: str) -> dict[str, int]:
        """The stored linkings of a 2-handle, by partner id (do not mutate)."""
        return self._partners.get(hid, {})

    def lk(self, x: str, y: str) -> int:
        """Linking number of two components: the stored value for two
        2-handles, the word's exponent sum for a dotted circle and a
        2-handle, zero for two dotted circles."""
        if y in self.one_handles:
            x, y = y, x
        if x in self.one_handles:
            h = self.handle(y)
            return 0 if h is None else h.word.exponent_sum(x)
        return self.partners(x).get(y, 0)

    def replace(self, **kw) -> "KirbyDatum":
        return dataclasses.replace(self, **kw)


def _index(d: KirbyDatum) -> None:
    """Store the first handle of each id and each id's stored partners on
    ``d``, whose parts are in canonical order."""
    object.__setattr__(d, "_by_id", {h.id: h for h in reversed(d.two_handles)})
    partners: dict[str, dict[str, int]] = {}
    for (x, y), v in d.links:
        partners.setdefault(x, {})[y] = v
        partners.setdefault(y, {})[x] = v
    object.__setattr__(d, "_partners", partners)


def _in_order(one_handles: tuple[str, ...], two_handles: tuple[TwoHandle, ...],
              three_handles: int, meta: tuple[tuple[str, Any], ...],
              links: tuple[tuple[Pair, int], ...], wheel: str | None = None) -> KirbyDatum:
    """The datum of parts already in the canonical order that ``KirbyDatum``
    gives them, which are neither sorted nor checked again: sorted dotted
    circles, 2-handles sorted by id, ``meta`` as (key, value) pairs sorted
    by key, and the pair store as sorted ``link_key`` pairs with nonzero int
    values, each a tuple.  ``wheel`` is the datum's wheel sequence when the
    caller knows its wheel metadata to be valid; it is stored as the verdict
    of ``wheel_sequence``."""
    d = object.__new__(KirbyDatum)
    object.__setattr__(d, "one_handles", one_handles)
    object.__setattr__(d, "two_handles", two_handles)
    object.__setattr__(d, "three_handles", three_handles)
    object.__setattr__(d, "meta", meta)
    object.__setattr__(d, "links", links)
    _index(d)
    if wheel is not None:
        object.__setattr__(d, "_wheel", wheel)
    return d


def make_datum(one_handles: Iterable[str] = (),
               two_handles: Iterable[TwoHandle] = (),
               three_handles: int = 0,
               meta: Mapping[str, Any] | None = None,
               links: Mapping[Pair, int] | None = None) -> KirbyDatum:
    return KirbyDatum(tuple(one_handles), tuple(two_handles), three_handles,
                      meta or (), links or ())


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

    if wheel_sequence(d) is None:  # a valid wheel breaks no wheel rule
        out.extend(_wheel_violations(d))
    return ValidationReport(tuple(out))


def _wheel_violations(d: KirbyDatum) -> list[Violation]:
    """The one validity rule of wheel metadata, empty for a datum whose
    ``meta`` has no ``sequence`` key: ``n``, ``m`` and the sequence pass
    ``check_wheel``, ``family`` is a string, an ``i`` is an int with
    1 <= i < n, and each pair j has the dotted circle and the 0-framed
    2-handle passing it once that ``pair_ids(j, sequence[j])`` names."""
    meta = d.meta_map
    if "sequence" not in meta:
        return []
    try:
        check_wheel(meta.get("n"), meta.get("m"), meta["sequence"], "wheel metadata")
        labels = isinstance(meta.get("family"), str) and (
            "i" not in meta or is_int(meta["i"]) and 0 < meta["i"] < meta["n"])
    except BadIndexError:
        labels = False
    if not labels:
        return [Violation("META_INCONSISTENT", f"bad wheel metadata {meta}")]
    gens = set(d.one_handles)
    out = []
    for j, sym in enumerate(meta["sequence"]):
        dotted, framed = pair_ids(j, sym)
        if dotted not in gens:
            out.append(Violation("META_INCONSISTENT",
                                 f"pair {j}: expected dotted circle {dotted}", (dotted,)))
            continue
        h = d.handle(framed)
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
    or breaks the rule that ``validate`` reports as META_INCONSISTENT.  The
    verdict is stored on the datum the first time it is worked out."""
    seq = getattr(d, "_wheel", _UNKNOWN)
    if seq is _UNKNOWN:
        seq = d.meta_map.get("sequence")
        if seq is not None and _wheel_violations(d):
            seq = None
        object.__setattr__(d, "_wheel", seq)
    return seq


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

def exponent_rows(d: KirbyDatum) -> list[dict[int, int]]:
    """The exponent-sum matrix as sparse rows: row k for the k-th dotted
    circle, {column j: the j-th 2-handle's nonzero exponent sum on it}.  A
    letter on any other name is ignored; a name listed twice among the
    dotted circles gets its row twice."""
    rows: list[dict[int, int]] = [{} for _ in d.one_handles]
    at: dict[str, list[int]] = {}
    for k, x in enumerate(d.one_handles):
        at.setdefault(x, []).append(k)
    for j, h in enumerate(d.two_handles):
        for x, e in h.word.exponents().items():
            if e and x in at:
                for k in at[x]:
                    rows[k][j] = e
    return rows


def exponent_matrix(d: KirbyDatum):
    """Matrix of word exponent sums: rows = dotted circles, cols = 2-handles
    (``exponent_rows`` read dense).

    Returns (matrix, row_ids, col_ids); ids are sorted for determinism.
    """
    col_ids = d.handle_ids
    return (IntMatrix.from_sparse(exponent_rows(d), len(col_ids)),
            tuple(d.one_handles), col_ids)


def linking_rows(d: KirbyDatum) -> list[dict[int, int]]:
    """The full linking matrix as sparse rows, {column: nonzero entry}, over
    the components in ``full_linking_matrix`` order.

    Dotted circles convert to 0-framed components (diagonal 0); 2-handles
    carry their framing on the diagonal; every off-diagonal entry is
    ``d.lk``, filled from where each linking is stored: a word's exponent
    sums on the dotted circles (a letter on any other name is ignored), and
    the ``links`` entries of two distinct 2-handles.  Ids are assumed
    distinct, as ``validate`` requires; the linkings of a repeated id go
    to its last component."""
    g = len(d.one_handles)
    rows: list[dict[int, int]] = [{} for _ in range(g + len(d.two_handles))]
    dotted = {x: k for k, x in enumerate(d.one_handles)}
    handle = {h.id: i for i, h in enumerate(d.two_handles, start=g)}
    for i, h in enumerate(d.two_handles, start=g):
        row = rows[i]
        if h.framing:
            row[i] = h.framing
        for x, e in h.word.exponents().items():
            if e and x in dotted:
                k = dotted[x]
                row[k] = rows[k][i] = e
    for (x, y), v in d.links:
        if v and x != y and x in handle and y in handle:
            i, j = handle[x], handle[y]
            rows[i][j] = rows[j][i] = v
    return rows


def full_linking_matrix(d: KirbyDatum):
    """Symmetric linking matrix over all components: ``linking_rows`` read
    dense.  Returns (matrix, component order): the dotted circles, then the
    2-handles."""
    order = tuple(d.one_handles) + d.handle_ids
    return IntMatrix.from_sparse(linking_rows(d), len(order)), order


# --- canonical form, hashing, file round trip ---------------------------------

def linking_records(d: KirbyDatum) -> dict[str, dict[str, int]]:
    """Each 2-handle's nonzero linkings with the other components, by id:
    its word's exponent sums for dotted circles, the store for 2-handles."""
    records = {h.id: {g: e for g, e in h.word.exponents().items() if e}
               for h in d.two_handles}
    for hid, partners in d._partners.items():
        records.setdefault(hid, {}).update(partners)
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
    """``json.dumps(canonical_form(d), sort_keys=True, separators=(",", ":"))``,
    assembled from the handles' cached fragments where they spell it."""
    try:
        text = _assembled_json(d)
    except TypeError:  # an id or a dotted circle that is not a str
        text = None
    if text is None:
        return json.dumps(canonical_form(d), sort_keys=True, separators=(",", ":"))
    return text


def _assembled_json(d: KirbyDatum) -> str | None:
    """The canonical JSON from per-handle fragments, with each stored
    partner merged into its handle's dotted entries (the store value wins
    on a shared key, as in ``linking_records``); None for data the
    fragments cannot spell."""
    records, previous = [], None
    for h in d.two_handles:  # sorted by id, so a repeated id comes next
        parts = getattr(h, "_json", _UNKNOWN)
        if parts is _UNKNOWN:  # spelled once per handle
            parts = h._spell()
            object.__setattr__(h, "_json", parts)
        if parts is None or h.id == previous:
            return None
        previous = h.id
        mine = d._partners.get(h.id)
        if mine is None:
            records.append(parts[3])
            continue
        head, dotted, tail, _ = parts
        entries = dotted | {k: f"[{_json_str(k)},{_json_int(v)}]" for k, v in mine.items()}
        records.append(head + ",".join([entries[k] for k in sorted(entries)]) + tail)
    if type(d.three_handles) is not int:
        return None
    meta = _meta_json({k: v for k, v in d.meta}) if d.meta else "{}"
    return (f'{{"format":{_FORMAT_JSON},"meta":{meta},'
            f'"one_handles":[{",".join(map(_json_str, d.one_handles))}],'
            f'"three_handles":{_json_int(d.three_handles)},"two_handles":[{",".join(records)}]}}')


def datum_hash(d: KirbyDatum) -> str:
    """The SHA-256 of the canonical JSON, stored on the datum the first time
    it is computed."""
    h = getattr(d, "_hash", None)
    if h is None:
        h = hashlib.sha256(canonical_json(d).encode("utf-8")).hexdigest()
        object.__setattr__(d, "_hash", h)
    return h


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


def dumps(d: KirbyDatum) -> str:
    return json.dumps(canonical_form(d), sort_keys=True, indent=2) + "\n"
