import random

import pytest

from corkcalc.families import build_Cm, build_X
from corkcalc.datum import make_datum, two_handle
from corkcalc.presentations import (TIETZE_BUDGET, GroupPresentation, TietzeStep,
                                    pi1_presentation, tietze_simplify)
from corkcalc.sequences import all_sequences
from corkcalc.words import Word, parse_word


def test_presentation_of_basic_cork():
    p = pi1_presentation(build_Cm(1))
    assert p.generators == ("a0",)
    assert [r.serialize() for r in p.relators] == [["a0"]]


def test_presentation_of_all_zero_wheel():
    p = pi1_presentation(build_X(3, 1, "000"))
    assert p.generators == ("b0", "b1", "b2")
    assert sorted(r.serialize()[0] for r in p.relators) == ["b0", "b1", "b2"]


def test_empty_presentation_is_trivial():
    p = pi1_presentation(make_datum((), [two_handle("u", (), 0)]))
    simplified, certified = tietze_simplify(p)
    assert certified
    assert simplified.generators == ()


def test_single_letter_relator_certifies():
    p = GroupPresentation(("a",), (parse_word(["a"]),))
    _, certified = tietze_simplify(p)
    assert certified


def test_whole_length_four_sweep_certifies():
    for x in all_sequences(4):
        p = pi1_presentation(build_X(4, 2, x))
        _, certified = tietze_simplify(p, 10_000)
        assert certified, x


def test_torsion_relator_not_certified():
    p = GroupPresentation(("a",), (parse_word(["a", "a"]),))
    simplified, certified = tietze_simplify(p)
    assert not certified
    assert simplified.abelianization() == (2,)


def test_relator_products_shorten():
    # <a | a^3, a^2>: product reduces to a single letter, then eliminates
    p = GroupPresentation(("a",), (parse_word(["a"] * 3), parse_word(["a"] * 2)))
    simplified, certified = tietze_simplify(p)
    assert certified, simplified


def test_budget_exhaustion_returns_best_effort():
    p = GroupPresentation(("a", "b"), (parse_word(["a"]), parse_word(["b"])))
    simplified, certified = tietze_simplify(p, budget=1)
    assert not certified
    assert len(simplified.generators) == 1  # one elimination happened


def test_conjugated_relator_certifies():
    # <a, b | b a b^-1, b>
    p = GroupPresentation(("a", "b"),
                          (parse_word(["b", "a", "-b"]), parse_word(["b"])))
    _, certified = tietze_simplify(p)
    assert certified


def test_free_group_reports_free_abelianization():
    p = GroupPresentation(("a", "b"), ())
    simplified, certified = tietze_simplify(p)
    assert not certified
    assert simplified.abelianization() == (0, 0)


def test_relators_must_use_known_generators():
    with pytest.raises(ValueError):
        GroupPresentation(("a",), (parse_word(["z"]),))


def test_move_log_records_steps():
    p = GroupPresentation(("a",), (parse_word(["a"]),))
    simplified, _ = tietze_simplify(p)
    assert any(step.move == "eliminate_generator" for step in simplified.move_log)


# --- oracle: the simplifier before its moves shared one budget check ----------

def seed_tietze_simplify(p: GroupPresentation, budget: int = TIETZE_BUDGET):
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


def _outcome(result):
    p, certified = result
    return p.generators, p.relators, p.move_log, certified


def _random_presentation(rng):
    gens = rng.sample("abcd", rng.randint(0, 4))
    rels = [Word(tuple((rng.choice(gens), rng.choice((1, -1)))
                       for _ in range(rng.randint(0, 6)) if gens))
            for _ in range(rng.randint(0, 4))]
    return GroupPresentation(tuple(gens), tuple(rels))


def test_tietze_simplify_matches_the_seed_on_random_presentations():
    rng = random.Random(31)
    for _ in range(1500):
        p = _random_presentation(rng)
        for budget in (0, 1, 2, 3, 5, 10_000):
            assert _outcome(tietze_simplify(p, budget)) == _outcome(seed_tietze_simplify(p, budget)), (p, budget)


def test_tietze_simplify_matches_the_seed_on_every_wheel_to_8():
    for n in range(1, 9):
        for x in all_sequences(n):
            p = pi1_presentation(build_X(n, 1, x))
            assert _outcome(tietze_simplify(p)) == _outcome(seed_tietze_simplify(p)), x
