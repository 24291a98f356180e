import pytest

from corkcalc.datum import TwoHandle, make_datum, two_handle
from corkcalc.errors import SearchBudgetExceededError
from corkcalc.families import (build_C, build_D, build_W, build_X,
                               dot_zero_exchange)
from corkcalc.isomorphism import (IsoWitness, check_witness, datum_isomorphic,
                                  relabeling_witness)
from corkcalc.sequences import rotation_ids, shift
from corkcalc.words import parse_word, single


def test_identity_witness():
    d = build_X(3, 1, "*0*")
    w = datum_isomorphic(d, d)
    assert w is not None
    assert check_witness(d, d, w)


def test_reflexive_and_symmetric_on_family_data():
    data = [build_X(2, 1, "0*"), build_X(4, 2, "*00*"), build_W(3, 1)]
    for d in data:
        assert datum_isomorphic(d, d) is not None
    d1, d2 = build_X(3, 1, "*00"), build_X(3, 1, "00*")
    w12 = datum_isomorphic(d1, d2)
    w21 = datum_isomorphic(d2, d1)
    assert w12 is not None and w21 is not None
    assert check_witness(d1, d2, w12) and check_witness(d2, d1, w21)


def test_wheel_rotation_found_but_not_reindexing():
    # cyclic rotations are witnesses; arbitrary pattern permutations are not
    assert datum_isomorphic(build_X(3, 1, "*00"), build_X(3, 1, "00*")) is not None
    assert datum_isomorphic(build_X(4, 1, "**00"), build_X(4, 1, "*0*0")) is None


def test_small_family_equality_and_distinction():
    for m in (1, 2, 3):
        c2 = build_C(2, m)
        exchanged = dot_zero_exchange(build_D(2, m))
        assert datum_isomorphic(c2, exchanged) is not None
        assert datum_isomorphic(build_C(3, m), build_D(3, m)) is None


def test_three_handle_counts_must_match():
    d1 = build_X(2, 1, "*0")
    d2 = d1.replace(three_handles=1)
    assert datum_isomorphic(d1, d2) is None


def test_generator_orientation_flip_is_found():
    d1 = make_datum(("g",), [two_handle("h", single("g", 1), 0)])
    d2 = make_datum(("g",), [two_handle("h", single("g", -1), 0)])
    w = datum_isomorphic(d1, d2)
    assert w is not None and check_witness(d1, d2, w)


def test_cyclic_word_rotation_is_found():
    d1 = make_datum(("a", "b"), [two_handle("h", parse_word(["a", "b"]), 0)])
    d2 = make_datum(("a", "b"), [two_handle("h", parse_word(["b", "a"]), 0)])
    w = datum_isomorphic(d1, d2)
    assert w is not None and check_witness(d1, d2, w)


def test_conjugated_word_is_found():
    # base-pointed words that agree after cyclic reduction
    d1 = make_datum(("a", "b"), [two_handle("h", parse_word(["a", "b", "-a"]), 0)])
    d2 = make_datum(("a", "b"), [two_handle("h", parse_word(["b"]), 0)])
    w = datum_isomorphic(d1, d2)
    assert w is not None and check_witness(d1, d2, w)


def test_handle_orientation_flips_linkings():
    handles = [two_handle("h1", (), -1), two_handle("h2", (), -1)]
    d1 = make_datum((), handles, links={("h1", "h2"): 1})
    d2 = make_datum((), handles, links={("h1", "h2"): -1})
    w = datum_isomorphic(d1, d2)
    assert w is not None and check_witness(d1, d2, w)


def test_framing_multiset_distinguishes():
    d1 = make_datum((), [two_handle("h", (), -1)])
    d2 = make_datum((), [two_handle("h", (), 1)])
    assert datum_isomorphic(d1, d2) is None


def test_search_budget_guard():
    big = make_datum((), [two_handle(f"h{k}", (), 0) for k in range(25)])
    with pytest.raises(SearchBudgetExceededError):
        datum_isomorphic(big, big)


def test_different_counts_are_not_isomorphic_beyond_the_search_bound():
    big = make_datum((), [two_handle(f"h{k}", (), 0) for k in range(25)])
    small = make_datum((), [two_handle("h0", (), 0)])
    assert datum_isomorphic(big, small) is None and datum_isomorphic(small, big) is None
    assert datum_isomorphic(big, big.replace(three_handles=1)) is None


def test_check_witness_reads_the_first_handle_of_a_repeated_id():
    # two handles of d1 go to the id "h" that d2 names twice, and each is
    # compared with the first of them, as ``KirbyDatum.handle`` finds it
    def on_a(*handles):
        return make_datum(("a",), [two_handle(hid, single("a"), f) for hid, f in handles])

    d1 = on_a(("x", 0), ("y", 0))
    first_fits, last_fits = on_a(("h", 0), ("h", 1)), on_a(("h", 1), ("h", 0))
    w = IsoWitness((("a", "a"),), (("x", "h"), ("y", "h")), (("a", 1),), (("x", 1), ("y", 1)))
    assert check_witness(d1, first_fits, w)
    assert not check_witness(d1, last_fits, w)


def test_relabeling_witness_needs_every_name_and_a_check_that_holds():
    x = "*00*0"
    d = build_X(5, 1, x)
    for i in range(5):
        ids = rotation_ids(5, i)
        w = relabeling_witness(d, build_X(5, 1, shift(x, i)), ids)
        assert w is not None and w.generator_map_dict == {g: ids[g] for g in d.one_handles}
        assert all(sign == 1 for _, sign in w.generator_signs + w.handle_signs)
        del ids["b4"]  # the map no longer names every circle and handle of d
        assert relabeling_witness(d, build_X(5, 1, shift(x, i)), ids) is None
    # "0*0*0" is shift(x, 3), so the identity names everything but is no witness
    assert relabeling_witness(d, build_X(5, 1, "0*0*0"), rotation_ids(5, 0)) is None
