"""Bounded isomorphism search between Kirby data.

Two data are isomorphic when a relabeling of dotted circles and 2-handles,
together with per-component orientation flips, matches words (up to free
reduction, inversion, and cyclic permutation), framings, linkings, and the
3-handle count.

Wheel-tagged data (both carrying family metadata) compare by cyclic
rotations of the pair indices only: the wheel structure is part of the
datum's identity, so a pure dot-pattern permutation that is not a rotation
is NOT a witness.  Data without (or with only one-sided) wheel tags fall
back to general bounded backtracking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .datum import KirbyDatum, link_key, linking_records, wheel_sequence
from .errors import SearchBudgetExceededError
from .sequences import rotation_ids, shift
from .words import Word

MAX_HANDLES = 24  # larger data are refused, not searched
_NODE_BUDGET = 2_000_000


@dataclass(frozen=True)
class IsoWitness:
    generator_map: tuple[tuple[str, str], ...]
    handle_map: tuple[tuple[str, str], ...]
    generator_signs: tuple[tuple[str, int], ...]
    handle_signs: tuple[tuple[str, int], ...]

    @property
    def generator_map_dict(self):
        return dict(self.generator_map)

    @property
    def handle_map_dict(self):
        return dict(self.handle_map)


def _cyclic_rotation_equal(w1: Word, w2: Word) -> bool:
    """Equality of cyclic words, orientation NOT quotiented out.  A rotation
    of a cyclically reduced word is reduced, so letter tuples compare."""
    a, b = w1.cyclic_reduce().letters, w2.cyclic_reduce().letters
    if len(a) != len(b):
        return False
    return a == b or any(a[i:] + a[:i] == b for i in range(1, len(a)))


def check_witness(d1: KirbyDatum, d2: KirbyDatum, w: IsoWitness) -> bool:
    """Verify a witness by direct comparison under the relabeling.

    A handle sign of -1 reverses the attaching circle: the word inverts and
    every linking with that handle negates.  A generator sign of -1 negates
    the generator's occurrences in all words (and hence its linkings).
    """
    gmap = w.generator_map_dict
    hmap = w.handle_map_dict
    gsign = dict(w.generator_signs)
    hsign = dict(w.handle_signs)
    if sorted(gmap) != sorted(d1.one_handles) or sorted(gmap.values()) != sorted(d2.one_handles):
        return False
    if sorted(hmap) != sorted(d1.handle_ids) or sorted(hmap.values()) != sorted(d2.handle_ids):
        return False
    if d1.three_handles != d2.three_handles:
        return False
    for h in d1.two_handles:
        target = d2.handle(hmap[h.id])
        if target is None or target.framing != h.framing:
            return False
        mapped = _mapped_word(h.word, gmap, gsign)
        if hsign.get(h.id, 1) < 0:
            mapped = mapped.inverse()
        if not _cyclic_rotation_equal(mapped, target.word):
            return False
    mapped_links = {link_key(hmap[x], hmap[y]): v * hsign.get(x, 1) * hsign.get(y, 1)
                    for (x, y), v in d1.links}
    return mapped_links == dict(d2.links)


def relabeling_witness(d1: KirbyDatum, d2: KirbyDatum,
                       ids: Mapping[str, str]) -> IsoWitness | None:
    """The witness that relabels the circles and 2-handles of d1 by ``ids``
    with every sign +1, when ``ids`` names each of them and ``check_witness``
    accepts it; None otherwise."""
    if not all(x in ids for x in d1.one_handles + d1.handle_ids):
        return None
    gmap = tuple((g, ids[g]) for g in d1.one_handles)
    hmap = tuple((h, ids[h]) for h in d1.handle_ids)
    witness = IsoWitness(gmap, hmap, tuple((g, 1) for g, _ in gmap),
                         tuple((h, 1) for h, _ in hmap))
    return witness if check_witness(d1, d2, witness) else None


def _mapped_word(word: Word, gmap: dict[str, str], gsign: dict[str, int]) -> Word:
    letters = []
    for g, s in word.letters:
        letters.append((gmap[g], s * gsign.get(g, 1)))
    return Word(tuple(letters))


def _bare_wheel_sequence(d: KirbyDatum) -> str | None:
    """The sequence of a bare wheel datum (its pairs and nothing else) with
    at least two pairs; a single pair has no radial/circular distinction."""
    seq = wheel_sequence(d)
    if seq is None or not 2 <= len(seq) == len(d.one_handles) == len(d.two_handles):
        return None
    return seq


def datum_isomorphic(d1: KirbyDatum, d2: KirbyDatum) -> IsoWitness | None:
    """Search for a witnessing relabeling; None when the search exhausts,
    or at once when the data differ in a count of 3-, 1- or 2-handles.

    Raises SearchBudgetExceededError when the counts agree and the data
    have more than ``MAX_HANDLES`` 2-handles.
    """
    if (d1.three_handles != d2.three_handles
            or len(d1.one_handles) != len(d2.one_handles)
            or len(d1.two_handles) != len(d2.two_handles)):
        return None
    if len(d1.two_handles) > MAX_HANDLES:
        raise SearchBudgetExceededError(
            f"datum exceeds the {MAX_HANDLES}-handle search bound")

    seq1 = _bare_wheel_sequence(d1)
    seq2 = seq1 and _bare_wheel_sequence(d2)
    if seq2:
        return _wheel_isomorphic(d1, seq1, d2, seq2)
    return _general_isomorphic(d1, d2)


def _wheel_isomorphic(d1, seq1, d2, seq2) -> IsoWitness | None:
    n = len(seq1)  # both data are bare wheels with the same handle counts
    for r in range(n):
        if shift(seq1, r) == seq2:
            witness = relabeling_witness(d1, d2, rotation_ids(n, r))
            if witness is not None:
                return witness
    return None


def _handle_signatures(d: KirbyDatum) -> dict:
    records = linking_records(d)
    return {h.id: (h.framing, len(h.word.cyclic_reduce()),
                   tuple(sorted(abs(v) for v in records[h.id].values())))
            for h in d.two_handles}


def _general_isomorphic(d1: KirbyDatum, d2: KirbyDatum) -> IsoWitness | None:
    sig1, sig2 = _handle_signatures(d1), _handle_signatures(d2)
    handles1 = sorted(d1.two_handles, key=lambda h: (sig1[h.id], h.id))
    by_sig2: dict = {}
    for h in d2.two_handles:
        by_sig2.setdefault(sig2[h.id], []).append(h)
    for h in handles1:
        if sig1[h.id] not in by_sig2:
            return None

    nodes = [0]

    def spend():
        nodes[0] += 1
        if nodes[0] > _NODE_BUDGET:
            raise SearchBudgetExceededError("isomorphism search node budget exhausted")

    def backtrack(idx, hmap, hsign, gmap, gsign, used):
        spend()
        if idx == len(handles1):
            return _finish(d1, d2, hmap, hsign, gmap, gsign)
        h = handles1[idx]
        for cand in by_sig2[sig1[h.id]]:
            if cand.id in used:
                continue
            for orient in (1, -1):
                # the linkings with the placed handles do not depend on the alignment
                if not _links_compatible(d1, d2, hmap, hsign, h, cand, orient):
                    continue
                for new_gmap, new_gsign in _word_alignments(h.word, cand.word, orient,
                                                             gmap, gsign):
                    hmap2 = dict(hmap)
                    hmap2[h.id] = cand.id
                    hsign2 = dict(hsign)
                    hsign2[h.id] = orient
                    result = backtrack(idx + 1, hmap2, hsign2, new_gmap, new_gsign,
                                       used | {cand.id})
                    if result is not None:
                        return result
        return None

    return backtrack(0, {}, {}, {}, {}, frozenset())


def _word_alignments(w1: Word, w2: Word, orient: int, gmap, gsign):
    """Yield extended (gmap, gsign) dicts aligning w1 (possibly inverted)
    with some cyclic rotation of w2.

    Both sides are cyclically reduced first: conjugator letters impose no
    constraints (zero exponent sums), and rotations of a cyclically reduced
    word stay reduced, so lengths compare honestly."""
    source = (w1 if orient > 0 else w1.inverse()).cyclic_reduce()
    target = w2.cyclic_reduce()
    if len(source) != len(target):
        return
    if not source:
        yield dict(gmap), dict(gsign)
        return
    for rot in target.rotations():
        new_gmap = dict(gmap)
        new_gsign = dict(gsign)
        ok = True
        for (g1, s1), (g2, s2) in zip(source.letters, rot.letters):
            want_sign = s1 * s2  # gsign[g1] must satisfy s1 * gsign = s2
            if g1 in new_gmap:
                if new_gmap[g1] != g2 or new_gsign[g1] != want_sign:
                    ok = False
                    break
            else:
                if g2 in new_gmap.values():
                    ok = False
                    break
                new_gmap[g1] = g2
                new_gsign[g1] = want_sign
        if ok:
            yield new_gmap, new_gsign


def _links_compatible(d1, d2, hmap, hsign, h, cand, orient) -> bool:
    return all(d1.lk(h.id, placed_id) * orient * hsign[placed_id]
               == d2.lk(cand.id, placed_target)
               for placed_id, placed_target in hmap.items())


def _finish(d1, d2, hmap, hsign, gmap, gsign) -> IsoWitness | None:
    # extend the generator map over unused generators (free choice)
    unused1 = [g for g in d1.one_handles if g not in gmap]
    unused2 = [g for g in d2.one_handles if g not in set(gmap.values())]
    if len(unused1) != len(unused2):
        return None
    full_gmap = dict(gmap)
    full_gsign = dict(gsign)
    for g1, g2 in zip(sorted(unused1), sorted(unused2)):
        full_gmap[g1] = g2
        full_gsign[g1] = 1
    witness = IsoWitness(tuple(sorted(full_gmap.items())),
                         tuple(sorted(hmap.items())),
                         tuple(sorted(full_gsign.items())),
                         tuple(sorted(hsign.items())))
    if check_witness(d1, d2, witness):
        return witness
    return None
