import random

from hypothesis import given, strategies as st

from corkcalc.words import Word, parse_word, single


def naive_reduce(letters):
    """Oracle: remove one adjacent cancelling pair at a time until stable."""
    out = list(letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(out) - 1):
            if out[i][0] == out[i + 1][0] and out[i][1] == -out[i + 1][1]:
                del out[i:i + 2]
                changed = True
                break
    return tuple(out)


letters_strategy = st.lists(
    st.tuples(st.sampled_from("abcd"), st.sampled_from((1, -1))), max_size=24)


def test_reduce_examples():
    assert Word((("a", 1), ("a", -1))).letters == ()
    assert Word((("a", 1), ("b", 1), ("b", -1), ("a", 1))).letters == (
        ("a", 1), ("a", 1))


def test_reduce_against_oracle_random():
    rng = random.Random(7)
    for _ in range(200):
        raw = [(rng.choice("abc"), rng.choice((1, -1))) for _ in range(20)]
        assert Word(tuple(raw)).letters == naive_reduce(raw)


@given(letters_strategy)
def test_reduce_matches_oracle(raw):
    assert Word(tuple(raw)).letters == naive_reduce(raw)


@given(letters_strategy)
def test_reduce_idempotent_and_exponent_preserving(raw):
    w = Word(tuple(raw))
    assert Word(w.letters).letters == w.letters
    for g in "abcd":
        assert w.exponent_sum(g) == sum(s for gg, s in raw if gg == g)


@given(letters_strategy)
def test_inverse_cancels(raw):
    w = Word(tuple(raw))
    assert (w * w.inverse()).letters == ()
    assert (w.inverse() * w).letters == ()


def test_powers():
    a = single("a")
    assert (a ** 3).letters == (("a", 1),) * 3
    assert (a ** -2).letters == (("a", -1),) * 2
    assert (a ** 0).letters == ()
    # against repeated products, on words that reduce across the seam
    rng = random.Random(4)
    for _ in range(300):
        w = Word(tuple((rng.choice("ab"), rng.choice((1, -1)))
                       for _ in range(rng.randint(0, 6))))
        for k in range(-6, 7):
            out = Word()
            for _ in range(abs(k)):
                out = out * (w if k > 0 else w.inverse())
            assert w ** k == out


def test_parse_serialize_round_trip():
    w = parse_word(["a", "-b", "a"])
    assert w.serialize() == ["a", "-b", "a"]
    assert w.exponents() == {"a": 2, "b": -1}


def test_rename_and_delete():
    w = parse_word(["a", "-b", "a"])
    assert w.rename({"a": "x"}).serialize() == ["x", "-b", "x"]
    assert w.delete_generator("a").serialize() == ["-b"]


def test_is_single_means_one_letter_on_the_generator():
    assert single("a").is_single("a") and single("a", -1).is_single("a")
    assert not single("a").is_single("b")
    assert not Word().is_single("a")
    assert not parse_word(["a", "a"]).is_single("a")
    assert not parse_word(["a", "b"]).is_single("a")
