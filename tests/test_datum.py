import hashlib
import json

import pytest

from corkcalc import moves, suites
from corkcalc.datum import (CorkPair, KirbyDatum, TwoHandle, canonical_form, canonical_json,
                            datum_hash, dumps, from_canonical, loads, make_datum,
                            two_handle, validate, validate_cork_pair, wheel_sequence,
                            full_linking_matrix, exponent_matrix)
from corkcalc.errors import DatumFormatError
from corkcalc.families import (build_C, build_W, build_W_twisted, build_X, build_Z,
                               load_elliptic_surface)
from corkcalc.linalg import IntMatrix
from corkcalc.words import Word, parse_word, single


def test_datum_stores_each_pair_once():
    d = make_datum((), [two_handle(h, (), 0) for h in "hxy"],
                   links={("y", "h"): 2, ("h", "x"): 0})
    assert d.links == ((("h", "y"), 2),)
    assert d.lk("h", "y") == d.lk("y", "h") == 2
    assert d.lk("h", "x") == 0
    with pytest.raises(ValueError):
        make_datum((), [], links={("h", "y"): 1, ("y", "h"): 1})


def test_meta_is_one_key_sorted_tuple_however_given():
    pairs = (("sequence", "*"), ("n", 1), ("m", 1), ("family", "X"))
    want = make_datum(("a0",), [two_handle("b0", single("a0"), 0)], meta=dict(pairs))
    assert want.meta == tuple(sorted(pairs))
    for meta in (dict(pairs), pairs, list(pairs), [list(p) for p in pairs], pairs[::-1]):
        d = KirbyDatum(want.one_handles, want.two_handles, meta=meta)
        assert d.meta == want.meta and d == want and hash(d) == hash(want)
        assert datum_hash(d) == datum_hash(want)
        assert want.replace(meta=meta) == want
    for repeated in ((("n", 1), ("n", 1)), [("n", 1), ("m", 1), ("n", "x")]):
        with pytest.raises(ValueError, match="meta key"):
            KirbyDatum(meta=repeated)


def test_dotted_linkings_are_exponent_sums():
    d = make_datum(("a", "b"), [two_handle("h", parse_word(["a", "a", "-b"]), -1)])
    assert d.lk("h", "a") == 2 and d.lk("b", "h") == -1
    assert d.lk("a", "b") == 0


def test_generated_families_validate():
    for n in range(1, 5):
        for x in ("*" * n, "0" * n):
            assert validate(build_X(n, 1, x)).ok
    assert validate(build_W(4, 2)).ok


def _document(one_handles, records):
    return json.dumps({"format": "corkcalc-datum/1", "meta": {}, "one_handles": one_handles,
                       "three_handles": 0, "two_handles": [
                           {"id": hid, "word": word, "framing": 0, "linking": linking}
                           for hid, word, linking in records]})


def test_loads_merges_the_two_records_of_a_pair():
    d = loads(_document([], [("h1", [], [["h2", 3]]), ("h2", [], [["h1", 3]])]))
    assert d.links == ((("h1", "h2"), 3),)
    assert loads(dumps(d)) == d


def test_loads_rejects_asymmetric_pair():
    with pytest.raises(DatumFormatError, match="LINKING_ASYMMETRIC"):
        loads(_document([], [("h1", [], [["h2", 1]]), ("h2", [], [])]))


def test_loads_rejects_wrong_dotted_record():
    with pytest.raises(DatumFormatError, match="EXPONENT_LINKING_MISMATCH"):
        loads(_document(["a"], [("h", ["a"], [["a", 3]])]))


def test_loads_rejects_missing_dotted_record():
    with pytest.raises(DatumFormatError, match="EXPONENT_LINKING_MISMATCH"):
        loads(_document(["a"], [("h", ["a"], [])]))


def test_unknown_generator_is_flagged():
    d = make_datum((), [TwoHandle("h", single("ghost"), 0)])
    report = validate(d)
    assert any(v.code == "UNKNOWN_GENERATOR" for v in report.violations)


def test_self_and_unknown_pairs_are_flagged():
    d = make_datum((), [two_handle("h", (), 0)], links={("h", "h"): 1, ("h", "ghost"): 2})
    codes = {v.code for v in validate(d).violations}
    assert codes == {"SELF_LINKING", "LINKING_UNKNOWN_ID"}


def test_duplicate_ids_are_flagged():
    d = make_datum(("a",), [TwoHandle("a", parse_word([]), 0)])
    assert any(v.code == "DUPLICATE_ID" for v in validate(d).violations)


@pytest.mark.parametrize("framings, codes", [
    ((0, 5), ["DUPLICATE_ID"]),
    ((5, 0), ["DUPLICATE_ID", "META_INCONSISTENT"]),
])
def test_the_wheel_rule_judges_the_first_handle_of_a_repeated_id(framings, codes):
    # the first b0 is the one ``handle`` finds and ``check_witness`` compares
    d = make_datum(("a0",), [two_handle("b0", single("a0"), f) for f in framings],
                   meta={"family": "X", "n": 1, "m": 1, "sequence": "*"})
    assert d.handle("b0").framing == framings[0]
    violations = validate(d).violations
    assert [v.code for v in violations] == codes
    assert (wheel_sequence(d) == "*") is (framings[0] == 0)
    if framings[0]:
        assert violations[-1].message == "pair 0: b0 must have framing 0"


_DROP = object()  # a meta change that removes the key


@pytest.mark.parametrize("d, change", [
    (build_X(2, 1, "*0"), {"sequence": "00"}),
    (build_C(1, 1), {"n": 1.0}),
    (build_C(1, 1), {"n": True}),
    (build_C(1, 1), {"m": 0}),
    (build_C(1, 1), {"m": True}),
    (build_C(1, 1), {"m": 1.5}),
    (build_C(1, 1), {"m": _DROP}),
    (build_C(1, 1), {"sequence": None}),
    (build_X(2, 1, "*0"), {"family": 5}),
    (build_X(2, 1, "*0"), {"family": None}),
    (build_X(2, 1, "*0"), {"family": _DROP}),
    (build_Z(3, 1, 1), {"i": True}),
    (build_Z(3, 1, 1), {"i": "x"}),
    (build_Z(3, 1, 1), {"i": 7}),
    (build_Z(3, 1, 1), {"i": None}),
    (build_Z(3, 1, 1), {"i": 0}),
    (build_Z(3, 1, 1), {"i": 3}),
    (build_Z(3, 1, 1), {"i": 1.0}),
], ids=["stale-sequence", "float-n", "bool-n", "zero-m", "bool-m", "float-m", "no-m",
        "null-sequence", "int-family", "null-family", "no-family", "bool-i", "str-i",
        "big-i", "null-i", "zero-i", "i-equals-n", "float-i"])
def test_wheel_meta_consistency_checked(d, change):
    meta = {k: v for k, v in (d.meta_map | change).items() if v is not _DROP}
    broken = d.replace(meta=tuple(sorted(meta.items())))
    assert any(v.code == "META_INCONSISTENT" for v in validate(broken).violations)


def test_wheel_meta_accepts_every_i_the_builders_write():
    for n in range(2, 6):
        for i in range(1, n):
            for d in (build_Z(n, 1, i), build_W_twisted(n, 1, i)):
                assert d.meta_map["i"] == i and validate(d).ok


def test_cork_pair_validation():
    d = build_X(3, 1, "*00")
    assert validate_cork_pair(d, CorkPair("a0", "b0", 1)) == []
    problems = validate_cork_pair(d, CorkPair("b1", "a2", 1))
    assert problems  # mismatched pair
    w = build_W(3, 1)
    # meridians pass through b1, so that pair is not separated
    assert validate_cork_pair(w, CorkPair("b1", "a1", 1))
    assert validate_cork_pair(w, CorkPair("a0", "b0", 1)) == []


def test_canonical_round_trip():
    for d in (build_X(3, 2, "0*0"), build_W(3, 1), load_elliptic_surface(1)):
        again = loads(dumps(d))
        assert canonical_json(again) == canonical_json(d)
        assert again == d
        assert datum_hash(again) == datum_hash(d)


def test_hash_changes_with_content():
    d1 = build_X(2, 1, "*0")
    d2 = build_X(2, 1, "0*")
    assert datum_hash(d1) != datum_hash(d2)


def test_strict_parse_errors():
    with pytest.raises(DatumFormatError):
        loads("{not json")
    with pytest.raises(DatumFormatError):
        from_canonical({"format": "corkcalc-datum/1"})
    with pytest.raises(DatumFormatError):
        from_canonical({"format": "nope", "one_handles": [], "two_handles": [],
                        "three_handles": 0, "meta": {}})
    good = dumps(build_C(2, 1))
    with pytest.raises(DatumFormatError):
        loads(good[: len(good) // 2])


def test_exponent_matrix_shape():
    d = build_X(2, 1, "*0")
    mat, row_ids, col_ids = exponent_matrix(d)
    assert row_ids == ("a0", "b1")
    assert col_ids == ("a1", "b0")
    # a1 passes b1 once; b0 passes a0 once
    assert mat == IntMatrix.from_rows([[0, 1], [1, 0]])


def test_full_linking_matrix_of_basic_cork():
    d = build_X(1, 1, "*")
    mat, order = full_linking_matrix(d)
    assert order == ("a0", "b0")
    assert mat == IntMatrix.from_rows([[0, 1], [1, 0]])


# --- the hash against its reference -------------------------------------------------

def reference_hash(d):
    """The hash of the reference serialization: ``canonical_form`` through
    ``json.dumps``, which ``canonical_json`` assembles from fragments."""
    text = json.dumps(canonical_form(d), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_hash_matches_the_reference_on_every_state_the_scripts_suite_records(monkeypatch):
    hashed = []

    def checked_hash(d):
        assert datum_hash(d) == reference_hash(d), canonical_json(d)
        hashed.append(d)
        return datum_hash(d)

    monkeypatch.setattr(moves, "datum_hash", checked_hash)  # recording and replay
    assert suites.run_suite("lemma-3-4-scripts", {"n_max": 7, "m_max": 1}).passed
    assert len(hashed) == 19_788


def test_hash_matches_the_reference_on_every_datum_the_move_audit_visits(monkeypatch):
    real_validate = suites.validate
    visited = [build() for _, build in suites._AUDIT_STARTS]

    def validate_and_keep(d):
        visited.append(d)
        return real_validate(d)

    monkeypatch.setattr(suites, "validate", validate_and_keep)  # every result of a move
    assert suites.run_suite("move-audit").passed
    assert len(visited) == len(suites._AUDIT_STARTS) + suites.AUDIT_WALKS * suites.AUDIT_MOVES
    for d in visited:
        assert datum_hash(d) == reference_hash(d), canonical_json(d)


ESCAPED = 'q"b\\c\x01\n\u00e9\u2028\U0001f600'  # a quote, a backslash, controls, non-ASCII


def _handle(hid, tokens, framing):
    return two_handle(hid, parse_word(tokens), framing)


@pytest.mark.parametrize("d", [
    # duplicate 2-handle ids: the reference writes the last one's dotted entries on both
    make_datum(("a", "b"), [_handle("h", ["a"], 0), _handle("h", ["b", "b"], 1)]),
    make_datum(("a",), [_handle("h", ["a"], 0), _handle("h", [], 0)], links={("h", "k"): 2}),
    # a stored partner that is also a word generator: the store value wins
    make_datum(("a",), [_handle("h", ["a"], 0), _handle("a", [], 1)], links={("a", "h"): 3}),
    make_datum((), [_handle("h", ["g", "g"], 0), _handle("g", [], 0)], links={("g", "h"): -1}),
    # self-linking, and a linking with an id that is no 2-handle
    make_datum((), [_handle("h", [], 0)], links={("h", "h"): 1, ("h", "ghost"): 2}),
    # meta values that are floats, nested, or strings JSON escapes
    build_X(2, 1, "*0").replace(meta=(("n", 2.0), ("x", {"b": [1, {"a": None}], "a": 1.5}))),
    make_datum((ESCAPED,), [_handle(ESCAPED + "h", [ESCAPED, "-" + ESCAPED, "b"], -2)],
               meta={ESCAPED: ESCAPED, "k": [ESCAPED, True, None]}),
    # values the fragments do not spell: a bool framing or 3-handle count,
    # a float sign, ids and generators that are not strings
    make_datum(("a",), [TwoHandle("h", parse_word(["a"]), True)]),
    make_datum(("a",), [_handle("h", ["a"], 0)], three_handles=True),
    make_datum(("a",), [TwoHandle("h", Word((("a", 1.0),)), 0)]),
    make_datum((), [TwoHandle(7, Word(()), 0), TwoHandle(8, Word(()), 0)], links={(7, 8): 1}),
    make_datum((1,), [TwoHandle("h", Word(((1, 1),)), 0)]),
], ids=["duplicate-ids", "duplicate-ids-linked", "partner-is-generator",
        "partner-is-generator-not-dotted", "self-linking", "float-and-nested-meta",
        "escaped-strings", "bool-framing", "bool-three-handles", "float-sign",
        "int-handle-ids", "int-generator"])
def test_hash_matches_the_reference_on_data_only_the_api_builds(d):
    assert datum_hash(d) == reference_hash(d)
    assert datum_hash(d) == datum_hash(d)  # with the fragments cached


def test_a_handle_keeps_its_fragment_and_its_equality():
    h = _handle("h", ["a"], 0)
    first = canonical_json(make_datum(("a",), [h]))
    assert "_json" in vars(h) and canonical_json(make_datum(("a",), [h])) == first
    assert h == _handle("h", ["a"], 0) and hash(h) == hash(_handle("h", ["a"], 0))
