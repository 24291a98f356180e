"""Group presentations from data and their Tietze simplification.

The simplifier only applies sound rewrites (free/cyclic reduction, removal
of empty relators, elimination of a generator killed by a single-letter
relator, and length-reducing relator products), so a triviality certificate
is never a false positive.  Failure to certify says nothing: abelianization
is the only non-triviality signal reported.
"""

from __future__ import annotations

from dataclasses import dataclass
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
        rows = []
        for g in sorted(self.generators):
            rows.append([r.exponent_sum(g) for r in self.relators])
        return IntMatrix.from_rows(rows) if rows else IntMatrix.zero(0, len(self.relators))

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

    certified_trivial is True only when every generator is eliminated.  On
    budget exhaustion the best simplification so far is returned with a
    False certificate.
    """
    gens = sorted(p.generators)
    rels = [r.cyclic_reduce() for r in p.relators]
    log = list(p.move_log)
    steps = 0

    def spend() -> bool:
        # a move is applied only if budget remains
        nonlocal steps
        if steps >= budget:
            return False
        steps += 1
        return True

    progress = True
    while progress:
        progress = False

        nonempty = [r for r in rels if r]
        if len(nonempty) != len(rels):
            if not spend():
                break
            rels = nonempty
            log.append(TietzeStep("drop_trivial_relators", ""))
            progress = True
            continue

        # eliminate a generator killed by a single-letter relator
        # (lowest generator id first, for reproducible logs)
        single_letter = [r for r in rels if len(r) == 1]
        if single_letter:
            if not spend():
                break
            chosen = min(single_letter, key=lambda r: r.letters[0][0])
            g = chosen.letters[0][0]
            rels = [r.delete_generator(g).cyclic_reduce()
                    for r in rels if r is not chosen]
            gens = [x for x in gens if x != g]
            log.append(TietzeStep("eliminate_generator", g))
            progress = True
            continue

        # length-reducing relator products, pairs only, deterministic order
        for i, ri in enumerate(rels):
            done = False
            for j, rj in enumerate(rels):
                if i == j:
                    continue
                best = None
                for rot in rj.rotations():
                    for candidate in (ri * rot, ri * rot.inverse()):
                        reduced = candidate.cyclic_reduce()
                        if len(reduced) < len(ri) and (best is None or len(reduced) < len(best)):
                            best = reduced
                if best is not None:
                    if not spend():
                        done = True
                        break
                    rels[i] = best
                    log.append(TietzeStep("relator_product", f"{i}<-{i}*{j}"))
                    progress = True
                    done = True
                    break
            if done:
                break

    certified = not gens and not rels
    result = GroupPresentation(tuple(gens), tuple(rels), tuple(log))
    return result, certified
