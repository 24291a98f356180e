"""Freely reduced words over named generators.

Letters are (generator, sign) pairs with sign +1 or -1.  Words are stored
base-pointed and freely reduced; cyclic reduction and rotations serve the
relator-style comparisons of the isomorphism search and Tietze moves.
``Word(letters)`` reduces its letters; ``_reduced`` wraps letters that
are already reduced, as a single letter is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

Letter = tuple[str, int]


def reduce_letters(letters: Iterable[Letter]) -> tuple[Letter, ...]:
    """Freely reduce a letter sequence with a single stack pass."""
    stack: list[Letter] = []
    for gen, sign in letters:
        if sign not in (1, -1):
            raise ValueError(f"letter sign must be +1 or -1, got {sign!r}")
        if stack and stack[-1][0] == gen and stack[-1][1] == -sign:
            stack.pop()
        else:
            stack.append((gen, sign))
    return tuple(stack)


@dataclass(frozen=True)
class Word:
    letters: tuple[Letter, ...] = ()

    def __post_init__(self):
        reduced = reduce_letters(self.letters)
        object.__setattr__(self, "letters", reduced)

    def __len__(self):
        return len(self.letters)

    def __bool__(self):
        return bool(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(tuple((g, -s) for g, s in reversed(self.letters)))

    def __pow__(self, k: int) -> "Word":
        base = self if k >= 0 else self.inverse()
        return Word(base.letters * abs(k))  # free reduction is unique

    def is_single(self, gen: str) -> bool:
        """Whether the word is one letter on ``gen``, of either sign."""
        return len(self.letters) == 1 and self.letters[0][0] == gen

    def exponent_sum(self, gen: str) -> int:
        return sum(s for g, s in self.letters if g == gen)

    def exponents(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for g, s in self.letters:
            out[g] = out.get(g, 0) + s
        return out

    def generators(self) -> set[str]:
        return {g for g, _ in self.letters}

    def delete_generator(self, gen: str) -> "Word":
        return Word(tuple(l for l in self.letters if l[0] != gen))

    def rename(self, mapping: Mapping[str, str]) -> "Word":
        """Relabel generators by ``mapping`` (unmapped ones stay), reducing
        again where two generators merge."""
        return Word(tuple((mapping.get(g, g), s) for g, s in self.letters))

    def cyclic_reduce(self) -> "Word":
        ls = list(self.letters)
        while len(ls) >= 2 and ls[0][0] == ls[-1][0] and ls[0][1] == -ls[-1][1]:
            ls = ls[1:-1]
        return Word(tuple(ls))

    def rotations(self):
        ls = self.letters
        if not ls:
            yield self
            return
        for i in range(len(ls)):
            yield Word(ls[i:] + ls[:i])

    def serialize(self) -> list[str]:
        return [g if s > 0 else "-" + g for g, s in self.letters]

    def __str__(self):
        if not self.letters:
            return "1"
        return ".".join(self.serialize())


def _reduced(letters: tuple[Letter, ...]) -> Word:
    """The word of ``letters``, which must already be freely reduced with
    signs +1 or -1: the one constructor that skips the reduction pass."""
    w = object.__new__(Word)
    object.__setattr__(w, "letters", letters)
    return w


def single(gen: str, sign: int = 1) -> Word:
    if sign not in (1, -1):
        raise ValueError(f"letter sign must be +1 or -1, got {sign!r}")
    return _reduced(((gen, sign),))


def parse_word(tokens: Iterable[str]) -> Word:
    """Parse ["a", "-b", ...] into a word."""
    letters = []
    for tok in tokens:
        if not isinstance(tok, str) or not tok:
            raise ValueError(f"invalid word token {tok!r}")
        if tok.startswith("-"):
            if len(tok) == 1:
                raise ValueError("bare '-' is not a word token")
            letters.append((tok[1:], -1))
        else:
            letters.append((tok, 1))
    return Word(tuple(letters))
