"""Group presentations from data and their Tietze simplification.

The simplifier only applies sound rewrites (free/cyclic reduction, removal
of empty relators, elimination of a generator killed by a single-letter
relator, and length-reducing relator products), so a triviality certificate
is never a false positive.  Failure to certify says nothing: abelianization
is the only non-triviality signal reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Any

from . import linalg
from .datum import KirbyDatum
from .errors import PresentationFormatError
from .linalg import IntMatrix
from .words import Word, parse_word


@dataclass(frozen=True)
class TietzeStep:
    move: str
    detail: str


@dataclass(frozen=True)
class GroupPresentation:
    generators: tuple[str, ...]
    relators: tuple[Word, ...]
    move_log: tuple[TietzeStep, ...] = ()

    def __post_init__(self):
        gens = set(self.generators)
        for r in self.relators:
            missing = r.generators() - gens
            if missing:
                raise ValueError(f"relator {r} uses unknown generators {sorted(missing)}")

    def exponent_matrix(self) -> IntMatrix:
        sums = [r.exponents() for r in self.relators]
        return IntMatrix(len(self.generators), len(sums), tuple(
            e.get(g, 0) for g in sorted(self.generators) for e in sums))

    def abelianization(self) -> tuple[int, ...]:
        """Invariant factors of the abelianized group (0 entries are free)."""
        if not self.generators:
            return ()
        return tuple(linalg.coker_invariants(self.exponent_matrix()))

    def to_dict(self) -> dict:
        return {
            "generators": sorted(self.generators),
            "relators": [r.serialize() for r in self.relators],
        }

    @staticmethod
    def from_dict(obj: Any) -> "GroupPresentation":
        """Parse the dict form, strictly: exactly the keys ``generators`` (a
        list of distinct nonempty strings) and ``relators`` (a list of
        token lists over those generators)."""
        if not isinstance(obj, dict) or set(obj) != {"generators", "relators"}:
            raise PresentationFormatError(
                "presentation must be an object with exactly the keys "
                "'generators' and 'relators'")
        gens, rels = obj["generators"], obj["relators"]
        if not isinstance(gens, list) or not all(isinstance(g, str) and g for g in gens):
            raise PresentationFormatError("generators must be a list of nonempty strings")
        if len(set(gens)) != len(gens):
            raise PresentationFormatError("generators must be distinct")
        if not isinstance(rels, list) or not all(isinstance(r, list) for r in rels):
            raise PresentationFormatError("relators must be a list of token lists")
        try:
            return GroupPresentation(tuple(gens), tuple(parse_word(r) for r in rels))
        except ValueError as e:
            raise PresentationFormatError(f"bad relator: {e}") from e


def pi1_presentation(d: KirbyDatum) -> GroupPresentation:
    """Fundamental-group presentation: dotted circles present generators,
    2-handle attaching words present relators."""
    return GroupPresentation(tuple(d.one_handles),
                             tuple(h.word for h in d.two_handles))


TIETZE_BUDGET = 10_000  # moves allowed per presentation unless a caller says otherwise


def tietze_simplify(p: GroupPresentation, budget: int = TIETZE_BUDGET):
    """Greedy sound simplification; returns (presentation, certified_trivial).

    Each turn applies the first move that applies, in this order: drop the
    empty relators, eliminate the lowest generator killed by a single-letter
    relator, or shorten a relator by a pair product (``_shortening_product``).
    The budget counts the moves applied, one per turn.  certified_trivial is
    True only when every generator is eliminated.  On budget exhaustion the
    best simplification so far is returned with a False certificate.
    """
    gens = sorted(p.generators)
    rels = [r.cyclic_reduce() for r in p.relators]
    log = list(p.move_log)
    steps = 0
    while steps < budget:
        if not all(rels):
            rels = [r for r in rels if r]
            log.append(TietzeStep("drop_trivial_relators", ""))
        elif single_letter := [r for r in rels if len(r) == 1]:
            # lowest generator id first, for reproducible logs
            chosen = min(single_letter, key=lambda r: r.letters[0][0])
            g = chosen.letters[0][0]
            rels = [r.delete_generator(g).cyclic_reduce()
                    for r in rels if r is not chosen]
            gens = [x for x in gens if x != g]
            log.append(TietzeStep("eliminate_generator", g))
        elif product := _shortening_product(rels):
            i, j, word = product
            rels[i] = word
            log.append(TietzeStep("relator_product", f"{i}<-{i}*{j}"))
        else:
            break
        steps += 1

    certified = not gens and not rels
    result = GroupPresentation(tuple(gens), tuple(rels), tuple(log))
    return result, certified


def _shortening_product(rels: list[Word]) -> tuple[int, int, Word] | None:
    """The first pair i != j, in order of i and then j, for which relator i
    times a rotation of relator j or of its inverse cyclically reduces to a
    shorter word; returns (i, j, the first shortest such word), or None."""
    for i, j in permutations(range(len(rels)), 2):
        ri = rels[i]
        products = ((ri * other).cyclic_reduce()
                    for rot in rels[j].rotations() for other in (rot, rot.inverse()))
        shorter = [w for w in products if len(w) < len(ri)]
        if shorter:
            return i, j, min(shorter, key=len)
    return None
