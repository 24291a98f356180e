"""Handle-decomposition data ("Kirby data") and their canonical form.

A datum records dotted circles (1-handles, one free-group generator each),
2-handles (attaching word over the generators, integer framing, linking
numbers with other components), and a 3-handle count.  The abstraction
deliberately forgets planar knotting: words and linking numbers are the
whole state.

Linking records are stored per 2-handle as a sparse map over *other
component ids*, covering both 2-handles and dotted circles.  For a dotted
circle the geometric linking number must equal the exponent sum of the
word, which ``validate`` enforces; builders fill those entries in
automatically.  Dotted circles form an unlink, so dotted-dotted linking is
identically zero and never stored.

Canonical serialization (sorted handles, normalized words, canonical JSON)
is the basis for file round-trips and trace hashing.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from .errors import DatumFormatError
from .words import Word, parse_word

DATUM_FORMAT = "corkcalc-datum/1"


@dataclass(frozen=True)
class TwoHandle:
    id: str
    word: Word
    framing: int
    linking: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        cleaned = tuple(sorted((k, int(v)) for k, v in dict(self.linking).items() if v != 0))
        object.__setattr__(self, "linking", cleaned)

    @property
    def linking_map(self) -> dict[str, int]:
        return dict(self.linking)

    def lk(self, other_id: str) -> int:
        return self.linking_map.get(other_id, 0)


def two_handle(hid: str, letters, framing: int, linking: Mapping[str, int] | None = None,
               *, dot_links_from_word: bool = True) -> TwoHandle:
    """Build a 2-handle; by default dotted-circle linkings are derived from
    the word's exponent sums (pass explicit values to override)."""
    w = Word(tuple(letters)) if not isinstance(letters, Word) else letters
    links = dict(linking or {})
    if dot_links_from_word:
        for g, e in w.exponents().items():
            links.setdefault(g, e)
    return TwoHandle(hid, w, int(framing), tuple(links.items()))


@dataclass(frozen=True)
class KirbyDatum:
    one_handles: tuple[str, ...] = ()
    two_handles: tuple[TwoHandle, ...] = ()
    three_handles: int = 0
    meta: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "one_handles", tuple(sorted(self.one_handles)))
        object.__setattr__(self, "two_handles",
                           tuple(sorted(self.two_handles, key=lambda h: h.id)))
        if isinstance(self.meta, dict):
            object.__setattr__(self, "meta", tuple(sorted(self.meta.items())))

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

    def component_ids(self) -> tuple[str, ...]:
        return tuple(self.one_handles) + self.handle_ids

    def replace(self, **kw) -> "KirbyDatum":
        data = {
            "one_handles": self.one_handles,
            "two_handles": self.two_handles,
            "three_handles": self.three_handles,
            "meta": self.meta,
        }
        data.update(kw)
        return KirbyDatum(**data)


def make_datum(one_handles: Iterable[str] = (),
               two_handles: Iterable[TwoHandle] = (),
               three_handles: int = 0,
               meta: Mapping[str, Any] | None = None) -> KirbyDatum:
    return KirbyDatum(tuple(one_handles), tuple(two_handles), three_handles,
                      tuple(sorted((meta or {}).items())))


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
    comp_ids = gens | hids

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
        links = h.linking_map
        for other, value in links.items():
            if other == h.id:
                out.append(Violation("SELF_LINKING",
                                     f"{h.id} records a linking with itself", (h.id,)))
            elif other not in comp_ids:
                out.append(Violation("LINKING_UNKNOWN_ID",
                                     f"{h.id} links unknown component {other}", (h.id, other)))
        # dotted-circle linkings must be the word exponent sums
        exps = h.word.exponents()
        for g in gens:
            recorded = links.get(g, 0)
            expected = exps.get(g, 0)
            if recorded != expected:
                out.append(Violation(
                    "EXPONENT_LINKING_MISMATCH",
                    f"{h.id}: word exponent sum {expected} in {g} but recorded linking {recorded}",
                    (h.id, g)))

    # symmetry of the 2-handle linking relation
    by_id = {h.id: h for h in d.two_handles}
    for h in d.two_handles:
        for other, value in h.linking_map.items():
            if other in by_id and by_id[other].lk(h.id) != value:
                out.append(Violation(
                    "LINKING_ASYMMETRIC",
                    f"lk({h.id},{other}) = {value} but lk({other},{h.id}) = {by_id[other].lk(h.id)}",
                    (h.id, other)))

    out.extend(_validate_wheel_meta(d, gens, by_id))
    return ValidationReport(tuple(out))


def _validate_wheel_meta(d: KirbyDatum, gens, by_id) -> list[Violation]:
    meta = d.meta_map
    seq = meta.get("sequence")
    if seq is None:
        return []
    out = []
    n = meta.get("n")
    if not isinstance(seq, str) or n != len(seq) or any(c not in "*0" for c in seq):
        return [Violation("META_INCONSISTENT", f"bad wheel metadata {meta}")]
    for j, sym in enumerate(seq):
        dotted, framed = (f"a{j}", f"b{j}") if sym == "*" else (f"b{j}", f"a{j}")
        if dotted not in gens:
            out.append(Violation("META_INCONSISTENT",
                                 f"pair {j}: expected dotted circle {dotted}", (dotted,)))
            continue
        h = by_id.get(framed)
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
    if len(h.word) != 1 or h.word.letters[0][0] != pair.dotted:
        problems.append(f"word of {h.id} is not a single pass through {pair.dotted}")
    for other in d.two_handles:
        if other.id == h.id:
            continue
        if other.word.exponent_sum(pair.dotted) != 0 or pair.dotted in other.word.generators():
            problems.append(f"{other.id} also passes through {pair.dotted}")
    for other_id, value in h.linking_map.items():
        if other_id != pair.dotted and value != 0:
            problems.append(f"{h.id} links {other_id}")
    return problems


# --- matrices -----------------------------------------------------------------

def exponent_matrix(d: KirbyDatum):
    """Matrix of word exponent sums: rows = dotted circles, cols = 2-handles.

    Returns (matrix, row_ids, col_ids); ids are sorted for determinism.
    """
    from .linalg import IntMatrix
    row_ids = tuple(d.one_handles)
    col_ids = d.handle_ids
    entries = []
    for g in row_ids:
        for h in d.two_handles:
            entries.append(h.word.exponent_sum(g))
    return IntMatrix(len(row_ids), len(col_ids), tuple(entries)), row_ids, col_ids


def full_linking_matrix(d: KirbyDatum):
    """Symmetric linking matrix over all components.

    Dotted circles convert to 0-framed components (diagonal 0); 2-handles
    carry their framing on the diagonal.  Off-diagonal entries come from
    word exponent sums (dotted vs handle) and recorded linkings (handle vs
    handle); dotted circles never link each other.
    Returns (matrix, component order).
    """
    from .linalg import IntMatrix
    order = tuple(d.one_handles) + d.handle_ids
    index = {cid: i for i, cid in enumerate(order)}
    n = len(order)
    rows = [[0] * n for _ in range(n)]
    for h in d.two_handles:
        i = index[h.id]
        rows[i][i] = h.framing
        for g, e in h.word.exponents().items():
            j = index[g]
            rows[i][j] = e
            rows[j][i] = e
        for other, value in h.linking_map.items():
            if other in index and other not in d.one_handles:
                rows[i][index[other]] = value
                rows[index[other]][i] = value
    return IntMatrix.from_rows(rows), order


# --- canonical form, hashing, file round trip ---------------------------------

def canonical_form(d: KirbyDatum) -> dict:
    return {
        "format": DATUM_FORMAT,
        "one_handles": list(d.one_handles),
        "two_handles": [
            {
                "id": h.id,
                "word": h.word.serialize(),
                "framing": h.framing,
                "linking": [[k, v] for k, v in h.linking],
            }
            for h in d.two_handles
        ],
        "three_handles": d.three_handles,
        "meta": {k: v for k, v in d.meta},
    }


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
    handles = []
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
        links = {}
        if not isinstance(rec["linking"], list):
            raise DatumFormatError(f"linking of {rec['id']} must be a list of [id, value]")
        for entry in rec["linking"]:
            if (not isinstance(entry, list) or len(entry) != 2
                    or not isinstance(entry[0], str)
                    or not isinstance(entry[1], int) or isinstance(entry[1], bool)):
                raise DatumFormatError(f"bad linking entry {entry!r} on {rec['id']}")
            if entry[0] in links:
                raise DatumFormatError(f"duplicate linking partner {entry[0]} on {rec['id']}")
            links[entry[0]] = entry[1]
        handles.append(TwoHandle(rec["id"], w, rec["framing"], tuple(links.items())))
    if not isinstance(obj["three_handles"], int) or isinstance(obj["three_handles"], bool):
        raise DatumFormatError("three_handles must be an integer")
    if not isinstance(obj["meta"], dict):
        raise DatumFormatError("meta must be an object")
    return make_datum(ones, handles, obj["three_handles"], obj["meta"])


def loads(text: str) -> KirbyDatum:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise DatumFormatError(f"invalid JSON: {e.msg}", line=e.lineno) from e
    return from_canonical(obj)


def dumps(d: KirbyDatum, indent: int | None = 2) -> str:
    return json.dumps(canonical_form(d), sort_keys=True, indent=indent) + "\n"
