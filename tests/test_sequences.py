import itertools
import json

import pytest
from hypothesis import example, given, strategies as st

from corkcalc import sequences, suites
from corkcalc.datum import validate
from corkcalc.errors import BadIndexError, LengthMismatchError
from corkcalc.families import build_C, build_X
from corkcalc.moves import MoveTrace, Recorder, trace_from_text
from corkcalc.scripts import deletion_chain
from corkcalc.sequences import (all_sequences, check_sequence, check_wheel, cork_order,
                                dotted_pairs, is_constant, least_rotation, pair_ids,
                                pair_index, pair_relabeling, period, rotation_ids,
                                rotation_map_order, shift)


def seed_check_sequence(x: str) -> str:
    """The character loop that ``check_sequence`` replaced, kept as its oracle."""
    if not isinstance(x, str) or len(x) < 1:
        raise ValueError("sequence must be a nonempty string of '*' and '0'")
    for ch in x:
        if ch not in ("*", "0"):
            raise ValueError(f"invalid sequence symbol {ch!r}")
    return x


def brute_shift(x: str, i: int) -> str:
    """Independent oracle: rotate the list so entry j comes from j - i."""
    n = len(x)
    return "".join(x[(j - i) % n] for j in range(n))


def brute_period(x: str) -> int:
    for p in range(1, len(x) + 1):
        if brute_shift(x, p) == x:
            return p
    raise AssertionError


seqs = st.text(alphabet="*0", min_size=1, max_size=12)


def test_shift_identity():
    assert shift("*00", 0) == "*00"


def test_least_rotation_is_the_least_shift_of_every_short_sequence():
    classes = set()
    for n in range(1, 11):
        for x in all_sequences(n):
            r, i = least_rotation(x)
            assert shift(x, i) == r == min(shift(x, k) for k in range(n))
            classes.add(r)
    # binary necklaces of length 1..10
    assert len(classes) == 2 + 3 + 4 + 6 + 8 + 14 + 20 + 36 + 60 + 108 == 261


def test_shift_period_two_pattern_is_fixed():
    assert shift("*0*0", 2) == "*0*0"


def test_shift_by_one():
    # frozen from the brute-force rotation oracle
    assert brute_shift("*00", 1) == "0*0"
    assert shift("*00", 1) == "0*0"


@given(seqs, st.integers(-20, 20))
def test_shift_matches_oracle(x, i):
    assert shift(x, i) == brute_shift(x, i)


@given(seqs, st.integers(-10, 10), st.integers(-10, 10))
def test_shift_composes(x, i, j):
    assert shift(shift(x, i), j) == shift(x, i + j)


def test_period_examples():
    assert period("000") == 1
    assert period("*0*0") == 2
    assert brute_period("*0000") == 5
    assert period("*0000") == 5


def test_period_divides_length_exhaustive():
    for n in range(1, 15):
        for x in all_sequences(n):
            rotations = [brute_shift(x, k) for k in range(n)]
            p = period(x)
            # brute_period, on the rotations already at hand
            assert p == next(q for q in range(1, n + 1) if rotations[q % n] == x)
            assert n % p == 0
            assert is_constant(x) == (p == 1) == (rotations[1 % n] == x)
            assert cork_order(x) == (p if p > 1 else None)
            r = min(rotations)
            assert least_rotation(x) == (r, rotations.index(r))


@st.composite
def texts_with_a_bad_symbol(draw):
    """A valid prefix, then one symbol outside the alphabet, then anything."""
    prefix = draw(st.text(alphabet="*0", max_size=6))
    bad = draw(st.characters(exclude_characters="*0"))
    return prefix + bad + draw(st.text(max_size=4))


def _outcome(check, x):
    try:
        return "ok", check(x)
    except ValueError as e:
        return "refused", str(e)


@given(st.one_of(st.text(), st.text(alphabet="*0"), texts_with_a_bad_symbol(),
                 st.none(), st.integers(), st.binary(), st.lists(st.sampled_from("*0"))))
@example("*0\"")
@example("'*0")
@example("*0*\\")
@example("**0é")
@example("00\U0001f600")
@example("*0*0x")
@example("*0\x00")
@example(" *0")
@example("")
@example(b"*0")
@example(["*", "0"])
def test_check_sequence_matches_the_seed(x):
    assert _outcome(check_sequence, x) == _outcome(seed_check_sequence, x)


@given(st.one_of(st.text(alphabet="*0x"), texts_with_a_bad_symbol(), st.none(),
                 st.integers(), st.lists(st.sampled_from("*0"))))
@example("")
def test_check_wheel_and_check_sequence_read_one_rule(x):
    n = len(x) if isinstance(x, (str, list)) else 1
    try:
        check_wheel(n, 1, x, "wheel")
        wheel_ok = True
    except BadIndexError:
        wheel_ok = False
    assert wheel_ok == (_outcome(check_sequence, x)[0] == "ok") == sequences.is_sequence(x)


def test_cork_order_head_pattern():
    for n in range(1, 9):
        x = "*" + "0" * (n - 1)
        if n == 1:
            assert cork_order(x) is None
        else:
            assert cork_order(x) == n


def test_cork_order_constant_sequences():
    assert cork_order("**") is None
    assert cork_order("0000") is None


def test_cork_order_alternating_vs_map_order():
    assert cork_order("*0*0") == 2
    assert rotation_map_order(4) == 4


def test_rotation_sends_each_circle_to_the_same_circle_of_pair_j_plus_i():
    for n in range(1, 6):
        assert rotation_map_order(n) == n
        for i in range(-n, 2 * n):
            ids = rotation_ids(n, i)
            assert sorted(ids) == sorted(ids.values())  # a permutation of the 2n circles
            for j in range(n):
                for sym in "*0":
                    target = pair_ids((j + i) % n, sym)
                    assert tuple(ids[c] for c in pair_ids(j, sym)) == target


def test_dotted_pairs_read_pair_ids_backwards():
    for n in range(1, 6):
        for x in all_sequences(n):
            dotted = [pair_ids(j, sym)[0] for j, sym in enumerate(x)]
            assert "".join(sym for _, sym in dotted_pairs(reversed(dotted))) == x
            # the survivors of a deletion keep their labels (none spell "")
            assert "".join(sym for _, sym in dotted_pairs(dotted[1:])) == x[1:]
    for bad in (["a0", "b0"], ["c0"], ["a"], ["a01"], ["a-1"], ["a²"], ["m1_1"], ["a\u0661"],
                ["del"], [0]):
        assert dotted_pairs(bad) is None


def test_pair_relabeling_renames_the_circles_pair_ids_names():
    # the survivors of a deletion keep their labels; they go to 0, 1, ...
    for js in ([0], [1, 3], [0, 2, 5], [4, 6, 7, 9]):
        for r in range(-len(js), 2 * len(js)):
            expected = {old: new for k, j in enumerate(js)
                        for sym in "*0"
                        for old, new in zip(pair_ids(j, sym), pair_ids((k - r) % len(js), sym))}
            assert pair_relabeling(js, r) == expected


def test_pair_index_reads_pair_ids_backwards():
    for j in (0, 1, 9, 10, 123):
        for sym, other in (("*", "0"), ("0", "*")):
            dotted, framed = pair_ids(j, sym)
            assert pair_index(dotted) == (j, sym) and pair_index(framed) == (j, other)
    # only a name that pair_ids spells names a pair: no leading zero, no
    # sign, no non-ASCII digit, no other prefix, no non-str
    for bad in ("a01", "a-1", "a\u0661", "a\u00b2", "del", "a", "", "c0", "a 1", "m1_1",
                0, None, ("a", 0)):
        assert pair_index(bad) is None, bad


@given(seqs)
def test_cork_order_is_period_when_nonconstant(x):
    if is_constant(x):
        assert cork_order(x) is None
    else:
        assert cork_order(x) == period(x) > 1


def test_invalid_sequences_rejected():
    with pytest.raises(ValueError):
        shift("", 0)
    with pytest.raises(ValueError):
        period("*1")


def test_all_sequences_counts():
    assert len(list(all_sequences(5))) == 32


def test_all_sequences_refuses_an_empty_length():
    # a sequence is nonempty, so no length below 1 spells one
    for n in (0, -1):
        with pytest.raises(ValueError):
            all_sequences(n)


def test_dotted_pairs_of_no_circles_is_empty():
    assert dotted_pairs([]) == []
    assert dotted_pairs(iter(())) == []


def test_cork_order_suite_validates_each_sequence_at_most_four_times(monkeypatch):
    # period is one substring search: no shift per candidate, and each
    # sequence function validates its argument once
    counts = {"check_sequence": 0, "shift": 0}
    for name in counts:
        def counted(*args, _f=getattr(sequences, name), _name=name):
            counts[_name] += 1
            return _f(*args)
        monkeypatch.setattr(sequences, name, counted)
    result = suites.run_suite("cork-order", {"n_max": 8})
    assert result.passed
    assert counts["shift"] == 0
    assert counts["check_sequence"] <= 4 * len(result.cases)


# --- the wheel rule ------------------------------------------------------------------

def _accepts(call, *args) -> bool:
    try:
        call(*args)
    except BadIndexError:
        return False
    return True


def _declared_target(n, m, x):
    header = {"format": "corkcalc-trace/1", "initial": "0" * 64,
              "target": {"family": "X", "n": n, "m": m, "sequence": x}}
    return trace_from_text(json.dumps(header) + "\n")


def _recorded_target(n, m, x):
    return Recorder(build_C(1, 1), target={"family": "X", "n": n, "m": m, "sequence": x})


def _built_target(n, m, x):
    return MoveTrace("0" * 64, (), {"family": "X", "n": n, "m": m, "sequence": x})


def _validates(n, m, x) -> bool:
    """``validate`` of the wheel of x (of ``*`` when x is no sequence) with
    n, m and x in its meta."""
    d = build_X(len(x), 1, x) if x in ("*", "0", "*0") else build_C(1, 1)
    meta = d.meta_map | {"n": n, "m": m, "sequence": x}
    return validate(d.replace(meta=tuple(sorted(meta.items())))).ok


def test_every_caller_applies_the_one_wheel_rule():
    # build_X, a trace's declared target (read, recorded or built in memory),
    # the scripts API and the wheel-metadata check accept exactly the same (n, m, x)
    values = (0, 1, 2, 3, True, 1.0, "1", None)
    for n, m, x in itertools.product(values, values, ("", "*", "0", "*0", "x0", None)):
        expected = (x in ("*", "0", "*0") and type(n) is int and type(m) is int
                    and n == len(x) and m >= 1)
        verdicts = [_accepts(check_wheel, n, m, x, "wheel"), _accepts(build_X, n, m, x),
                    _accepts(_declared_target, n, m, x), _accepts(_recorded_target, n, m, x),
                    _accepts(_built_target, n, m, x), _accepts(deletion_chain, n, m, x),
                    _validates(n, m, x)]
        assert verdicts == [expected] * 7, (n, m, x)


def test_check_wheel_names_what_it_refuses():
    with pytest.raises(BadIndexError, match="bad trace target parameters n=1, m=0"):
        check_wheel(1, 0, "*", "trace target")
    with pytest.raises(LengthMismatchError, match="bad wheel parameters: n=3, sequence length 2"):
        check_wheel(3, 1, "*0", "wheel")
