"""Move-engine contracts plus the congruence/invariance oracles."""

import hashlib
import inspect
import json
import random
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import pytest

from corkcalc import moves
from corkcalc.datum import (canonical_json, datum_hash, full_linking_matrix, make_datum,
                            two_handle, validate)
from corkcalc.errors import (BadLinkingError, CorkCalcError, DuplicateIdError, HashMismatchError,
                             HandleNotFoundError, IllegalMoveError,
                             NotBlowdownableError, NotCancellableError,
                             NotSeparatedError, NotSplitError,
                             NotWheelFamilyError, UnknownGeneratorError)
from corkcalc.families import build_C, build_Cm, build_W, build_X
from corkcalc.invariants import boundary_h1, homology
from corkcalc.linalg import IntMatrix
from corkcalc.moves import (MoveStep, MoveTrace, Recorder, apply_move, attach_2handle, blow_down,
                            blow_up, cancel_1_2, cork_twist_pair,
                            minus_one_sphere_present, remove_split_zero_handle,
                            replay, rotate, slide_2_over_1, slide_2_over_2,
                            trace_from_text, trace_to_text, twist_wheel)
from corkcalc.scripts import deletion_chain, deletion_script, verify_deletion
from corkcalc.sequences import all_sequences, rotation_ids


def two_zero_framed_linked():
    return make_datum((), [two_handle("h1", (), 0), two_handle("h2", (), 0)],
                      links={("h1", "h2"): 1})


def slide_congruence_matrix(d, h1, h2, sign):
    """Oracle: the elementary matrix realizing the slide on the full
    linking matrix (dot rows included)."""
    _, order = full_linking_matrix(d)
    n = len(order)
    i1, i2 = order.index(h1), order.index(h2)
    rows = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    rows[i2][i1] = sign
    return IntMatrix.from_rows(rows)


# --- slide_2_over_2 ---------------------------------------------------------------

def test_slide_framing_and_linking_update():
    d = two_zero_framed_linked()
    out = slide_2_over_2(d, "h1", "h2", 1)
    assert out.handle("h1").framing == 2
    assert out.lk("h1", "h2") == 1
    assert validate(out).ok


def test_slide_over_self_rejected():
    with pytest.raises(IllegalMoveError):
        slide_2_over_2(two_zero_framed_linked(), "h1", "h1", 1)
    with pytest.raises(HandleNotFoundError):
        slide_2_over_2(two_zero_framed_linked(), "h1", "ghost", 1)


def test_slide_is_full_matrix_congruence():
    rng = random.Random(5)
    d = build_W(3, 1)
    for step in range(100):
        if step % 10 == 0:
            d = build_W(3, 1)  # keep entry growth bounded
        ids = list(d.handle_ids)
        h1, h2 = rng.sample(ids, 2)
        sign = rng.choice((1, -1))
        before, order = full_linking_matrix(d)
        out = slide_2_over_2(d, h1, h2, sign)
        after, order2 = full_linking_matrix(out)
        assert order == order2
        e = slide_congruence_matrix(d, h1, h2, sign)
        assert e.transpose().mul(before).mul(e) == after
        d = out


def test_slides_preserve_homology_and_boundary():
    rng = random.Random(6)
    d = build_W(4, 1)
    prof0 = homology(d)
    bh0 = boundary_h1(d).invariant_factors
    for _ in range(100):
        h1, h2 = rng.sample(list(d.handle_ids), 2)
        d = slide_2_over_2(d, h1, h2, rng.choice((1, -1)))
        assert homology(d) == prof0
        assert boundary_h1(d).invariant_factors == bh0
        assert validate(d).ok


# --- slide_2_over_1 -----------------------------------------------------------------

def test_slide_over_dotted_circle_contract():
    d = make_datum(("a", "b"), [two_handle("h", [("a", 1)], 0)])
    out = slide_2_over_1(d, "h", "b", 1)
    h = out.handle("h")
    assert h.word.serialize() == ["a", "b"]
    assert out.lk("h", "a") == 1 and out.lk("h", "b") == 1
    assert h.framing == 0
    assert validate(out).ok


def test_slide_over_dotted_circle_involution():
    d = build_X(2, 1, "*0")
    out = slide_2_over_1(d, "b0", "a0", 1, end="back")
    back = slide_2_over_1(out, "b0", "a0", -1, end="back")
    assert canonical_json(back) == canonical_json(d.replace(meta={}))


def test_slide_over_dotted_front_end():
    d = make_datum(("a", "b"), [two_handle("h", [("a", 1)], 3)])
    out = slide_2_over_1(d, "h", "b", -1, end="front")
    assert out.handle("h").word.serialize() == ["-b", "a"]
    assert out.handle("h").framing == 3


# --- cancel_1_2 -----------------------------------------------------------------------

def test_cancel_basic_pair_gives_empty_datum():
    out = cancel_1_2(build_Cm(1), "a0", "b0")
    assert out.one_handles == () and out.two_handles == ()


def test_cancel_requires_single_pass():
    d = make_datum(("a",), [two_handle("h", [("a", 1), ("a", 1)], 0)])
    with pytest.raises(NotCancellableError):
        cancel_1_2(d, "a", "h")


def test_cancel_slides_other_words_free():
    d = build_X(2, 1, "*0")
    d = attach_2handle(d, "extra", ["a0", "b1", "a0"], 0, {})
    out = cancel_1_2(d, "a0", "b0")
    extra = out.handle("extra")
    assert extra.word.exponent_sum("a0") == 0
    assert "a0" not in out.one_handles and out.handle("b0") is None
    assert validate(out).ok


def test_cancel_preserves_boundary_and_profile():
    d = build_X(3, 1, "0*0")
    before_prof = homology(d)
    before_bh = boundary_h1(d).invariant_factors
    out = cancel_1_2(d, "a1", "b1")
    assert homology(out) == before_prof
    assert boundary_h1(out).invariant_factors == before_bh


# --- remove_split_zero_handle ------------------------------------------------------------

def test_remove_split_handle():
    d = make_datum((), [two_handle("u", (), 0)])
    out = remove_split_zero_handle(d, "u")
    assert out.two_handles == ()
    assert out.three_handles == d.three_handles


def test_remove_split_rejects_non_split():
    d = make_datum((), [two_handle("u", (), 1)])
    with pytest.raises(NotSplitError):
        remove_split_zero_handle(d, "u")
    linked = two_zero_framed_linked()
    with pytest.raises(NotSplitError):
        remove_split_zero_handle(linked, "h1")


def test_remove_split_drops_one_b2():
    d = attach_2handle(build_X(2, 1, "*0"), "u", [], 0, {})
    assert homology(d).b2 == 1
    out = remove_split_zero_handle(d, "u")
    assert homology(out).b2 == 0
    assert homology(out).h1_invariants == ()


# --- attach_2handle -------------------------------------------------------------------------

def test_attach_meridian_of_dotted_circle():
    d = attach_2handle(build_X(3, 1, "*00"), "z", ["b2"], -1, {})
    assert homology(d).b2 == 1
    assert validate(d).ok


def test_attach_split_zero_handle_gains_b2():
    d = attach_2handle(build_X(2, 1, "0*"), "u", [], 0, {})
    assert homology(d).b2 == 1


def test_attach_errors():
    base = build_X(2, 1, "*0")
    with pytest.raises(UnknownGeneratorError):
        attach_2handle(base, "z", ["ghost"], 0, {})
    with pytest.raises(BadLinkingError):
        attach_2handle(base, "z", [], 0, {"nope": 1})
    with pytest.raises(BadLinkingError):
        attach_2handle(base, "z", [], 0, {"a0": 1})  # dotted circles not linkable here
    with pytest.raises(DuplicateIdError):
        attach_2handle(base, "b0", [], 0, {})


def test_attach_symmetrizes_linking():
    d = attach_2handle(two_zero_framed_linked(), "h3", [], 0, {"h1": 2})
    assert d.lk("h1", "h3") == d.lk("h3", "h1") == 2
    assert validate(d).ok


# --- blow moves --------------------------------------------------------------------------------

def test_blow_up_then_down_round_trip():
    d = build_X(2, 1, "*0")
    up = blow_up(d, "e", -1)
    assert homology(up).b2 == homology(d).b2 + 1
    down = blow_down(up, "e")
    assert canonical_json(down) == canonical_json(d)


def test_blow_down_split_minus_one():
    d = make_datum((), [two_handle("u", (), -1)])
    out = blow_down(d, "u")
    assert out.two_handles == ()


def test_blow_down_transfers_squares_and_products():
    d = make_datum((), [two_handle("e", (), -1), two_handle("x", (), 0), two_handle("y", (), 3)],
                   links={("e", "x"): 1, ("e", "y"): 2})
    before = boundary_h1(d).invariant_factors
    out = blow_down(d, "e")
    assert out.handle("x").framing == 0 + 1
    assert out.handle("y").framing == 3 + 4
    assert out.lk("x", "y") == 0 + 1 * 2
    assert boundary_h1(out).invariant_factors == before
    assert homology(out).b2 == homology(d).b2 - 1


def test_blow_down_rejections():
    with pytest.raises(NotBlowdownableError):
        blow_down(make_datum((), [two_handle("u", (), 2)]), "u")
    d = make_datum(("a",), [two_handle("u", [("a", 1)], -1)])
    with pytest.raises(NotBlowdownableError):
        blow_down(d, "u")


def test_blow_down_shifts_signature_by_one():
    from corkcalc.invariants import intersection_form
    from corkcalc.linalg import signature

    d = make_datum((), [two_handle("e", (), -1), two_handle("x", (), 0)],
                   links={("e", "x"): 1})
    before = signature(intersection_form(d))
    out = blow_down(d, "e")
    after = signature(intersection_form(out))
    assert (after[0] - after[1]) - (before[0] - before[1]) == 1

    d_plus = make_datum((), [two_handle("e", (), 1), two_handle("x", (), 0)],
                        links={("e", "x"): 1})
    before = signature(intersection_form(d_plus))
    after = signature(intersection_form(blow_down(d_plus, "e")))
    assert (after[0] - after[1]) - (before[0] - before[1]) == -1


def test_minus_one_sphere_flag():
    assert minus_one_sphere_present(make_datum((), [two_handle("u", (), -1)]))
    assert not minus_one_sphere_present(build_X(3, 1, "*00"))


# --- cork twists ----------------------------------------------------------------------------------

def test_cork_twist_pair_flips_pattern():
    d = build_X(3, 1, "*00")
    out = cork_twist_pair(d, "a0", "b0", 1)
    assert out.meta_map["sequence"] == "000"
    assert canonical_json(out) == canonical_json(build_X(3, 1, "000"))


def test_cork_twist_is_involution():
    d = build_X(2, 1, "0*")
    once = cork_twist_pair(d, "b0", "a0", 1)
    twice = cork_twist_pair(once, "a0", "b0", 1)
    assert canonical_json(twice) == canonical_json(d)


def test_cork_twist_requires_separation():
    w = build_W(3, 1)  # meridians pass through b1, b2
    with pytest.raises(NotSeparatedError):
        cork_twist_pair(w, "b1", "a1", 1)


def test_cork_twist_preserves_profile_and_boundary():
    d = build_X(4, 2, "*0*0")
    out = cork_twist_pair(d, "a2", "b2", 2)
    assert homology(out) == homology(d)
    assert boundary_h1(out).invariant_factors == boundary_h1(d).invariant_factors


def test_twist_wheel_matches_flipped_sequence():
    d = build_X(3, 1, "*00")
    out = twist_wheel(d, 1)
    assert out.meta_map["sequence"] == "0*0"
    assert canonical_json(out) == canonical_json(build_X(3, 1, "0*0"))


def test_twist_wheel_rewrites_externals():
    w = build_W(3, 1)
    out = twist_wheel(w, 1)
    assert validate(out).ok
    blowable = [h.id for h in out.two_handles if not h.word and h.framing == -1]
    assert blowable == ["m1_1"]
    assert out.lk("m1_1", "b1") == 1
    assert homology(out).b2 == homology(w).b2
    assert boundary_h1(out).invariant_factors == boundary_h1(w).invariant_factors


def test_twist_wheel_needs_metadata():
    plain = make_datum((), [two_handle("u", (), 0)])
    with pytest.raises(NotWheelFamilyError):
        twist_wheel(plain, 1)


# --- rotate -----------------------------------------------------------------------------------------

def test_rotate_full_turn_is_identity():
    d = build_X(4, 1, "*00*")
    out = rotate(d, 4)
    assert canonical_json(out) == canonical_json(d)
    assert all(new == old for old, new in rotation_ids(4, 4).items())


def test_rotate_composes():
    d = build_X(4, 1, "*0*0")
    one_one = rotate(rotate(d, 1), 1)
    two = rotate(d, 2)
    assert canonical_json(one_one) == canonical_json(two)


def test_rotate_automorphism_iff_period_divides():
    d = build_X(4, 1, "*0*0")
    assert canonical_json(rotate(d, 2)) == canonical_json(d)
    assert canonical_json(rotate(d, 1)) != canonical_json(d)
    r1 = rotate(build_X(3, 1, "*00"), 1)
    assert r1.meta_map["sequence"] == "0*0"


def test_rotate_produces_shifted_family_datum():
    from corkcalc.sequences import shift

    d = build_X(4, 2, "*00*")
    for i in range(4):
        out = rotate(d, i)
        assert canonical_json(out) == canonical_json(build_X(4, 2, shift("*00*", i)))


def test_rotate_carries_externals():
    w = build_W(3, 1)
    out = rotate(w, 1)
    assert validate(out).ok
    assert out.handle("m1_1").word.serialize() == ["b2"]


# --- traces and replay ----------------------------------------------------------------------------------

def test_each_move_types_exactly_the_parameters_of_its_function():
    for move, (function, types) in moves.MOVES.items():
        _, *params = inspect.signature(function).parameters
        assert list(types) == params, move


@pytest.mark.parametrize("params, problem", [
    ({"i": 1, "junk": 2}, "unknown param junk"),
    ({"i": "1"}, "param i must be an integer"),
    ({}, "lacks i"),
], ids=["unknown-key", "string-value", "missing-key"])
def test_a_recorded_move_checks_its_params(params, problem):
    rec = Recorder(build_C(2, 1))
    with pytest.raises(CorkCalcError, match=problem):
        rec.apply("rotate", **params)
    assert rec.trace().steps == ()


def test_replay_empty_trace():
    d = build_X(2, 1, "*0")
    assert replay(d, MoveTrace(datum_hash(d))) == d


def test_record_replay_round_trip():
    d = build_W(3, 1)
    rec = Recorder(d)
    rec.apply("twist_wheel", i=2)
    rec.apply("blow_down", h="m2_1")
    rec.apply("blow_down", h="m2_2")
    trace = rec.trace()
    result = replay(d, trace)
    assert datum_hash(result) == trace.final
    assert homology(result).b2 == 1


def test_replay_detects_tampering():
    d = build_X(3, 1, "*00")
    rec = Recorder(d)
    rec.apply("attach_2handle", id="u", word=[], framing=0, linking={})
    rec.apply("remove_split_zero_handle", h="u")
    text = trace_to_text(rec.trace())
    tampered = text.replace('"framing": 0', '"framing": 1', 1)
    with pytest.raises(HashMismatchError) as err:
        replay(d, trace_from_text(tampered))
    assert err.value.step_index == 0


def test_replay_rejects_wrong_start():
    d = build_X(3, 1, "*00")
    rec = Recorder(d)
    rec.apply("rotate", i=1)
    trace = rec.trace()
    with pytest.raises(HashMismatchError):
        replay(build_X(3, 1, "00*"), trace)


def test_trace_text_round_trip():
    d = build_X(2, 1, "0*")
    rec = Recorder(d, target={"family": "X", "n": 2, "m": 1, "sequence": "0*"})
    rec.apply("rotate", i=1)
    trace = rec.trace()
    parsed = trace_from_text(trace_to_text(trace))
    assert parsed == trace
    assert parsed.target == {"family": "X", "n": 2, "m": 1, "sequence": "0*"}


def test_trace_text_keeps_params():
    # an empty word and a linking object come back as recorded
    params = [("attach_2handle", {"id": "u", "word": [], "framing": 0, "linking": {"b0": 1}}),
              ("slide_2_over_1", {"h": "u", "g": "a0", "sign": -1, "end": "front"})]
    rec = Recorder(build_X(3, 1, "*00"))
    for move, p in params:
        rec.apply(move, **p)
    parsed = trace_from_text(trace_to_text(rec.trace()))
    assert [(s.move, s.params) for s in parsed.steps] == params


def test_each_step_checks_its_params_once(monkeypatch):
    # the one check is at step construction: replay applies a built step unchecked
    checked = []
    real = moves._check_params
    monkeypatch.setattr(moves, "_check_params",
                        lambda move, params, *what: checked.append(move) or real(move, params, *what))
    d = build_W(3, 1)
    rec = Recorder(d)
    for move, params in (("twist_wheel", {"i": 2}), ("blow_down", {"h": "m2_1"}),
                         ("blow_down", {"h": "m2_2"})):
        rec.apply(move, **params)
    recorded = rec.trace()
    parsed = trace_from_text(trace_to_text(recorded))
    built = MoveTrace(recorded.initial, tuple(
        MoveStep(s.move, s.params, s.pre, s.post) for s in recorded.steps))
    assert checked == ["twist_wheel", "blow_down", "blow_down"] * 3  # record, parse, build
    for trace in (recorded, parsed, built):
        assert datum_hash(replay(d, trace)) == recorded.final
    assert len(checked) == 9


def test_a_step_built_in_memory_refuses_a_bad_param():
    d = build_C(2, 1)
    with pytest.raises(CorkCalcError, match="param i must be an integer"):
        MoveStep("rotate", {"i": "1"}, datum_hash(d), datum_hash(d))
    with pytest.raises(IllegalMoveError, match="unknown move"):
        MoveStep("spin", {}, datum_hash(d), datum_hash(d))


def test_a_trace_built_in_memory_refuses_a_bad_target():
    # the target is checked where the trace is built, so check_trace never
    # reads a target that lacks n or is no object
    h = datum_hash(build_C(2, 1))
    for target in ({"x": 1}, "junk", {"n": 1, "m": 1}):
        with pytest.raises(CorkCalcError, match="trace target"):
            MoveTrace(h, (), target)
    target = {"family": "X", "n": 1, "m": 1, "sequence": "*"}
    trace = MoveTrace(h, (), target)
    assert trace.target == target and trace.target is not target


# --- hashing each state once ----------------------------------------------------------------------

@pytest.fixture
def hashed(monkeypatch):
    """The data that the trace layer hashes, in call order."""
    calls = []

    def counting(d):
        calls.append(d)
        return datum_hash(d)

    monkeypatch.setattr(moves, "datum_hash", counting)
    return calls


def test_recording_and_replaying_k_moves_hash_k_plus_one_states(hashed):
    d = build_W(3, 1)
    rec = Recorder(d)
    for move, params in (("twist_wheel", {"i": 2}), ("blow_down", {"h": "m2_1"}),
                         ("blow_down", {"h": "m2_2"})):
        rec.apply(move, **params)
    assert len(hashed) == 4
    replay(d, rec.trace())
    assert len(hashed) == 8


def test_a_verified_deletion_hashes_eight_states(hashed):
    assert verify_deletion(4, 1, "*0*0", 1)
    assert len(hashed) == 8  # 4 while recording 3 moves, 4 while replaying them


def reference_replay(initial, trace):
    """Oracle: ``replay`` as it was when it hashed every pre-state again."""
    current = initial
    if datum_hash(current) != trace.initial:
        raise HashMismatchError("initial datum does not match trace header", -1)
    for idx, step in enumerate(trace.steps):
        if datum_hash(current) != step.pre:
            raise HashMismatchError(f"pre-hash mismatch at step {idx}", idx)
        try:
            current = apply_move(current, step.move, step.params)
        except CorkCalcError as e:
            e.step_index = idx
            raise
        if datum_hash(current) != step.post:
            raise HashMismatchError(f"post-hash mismatch at step {idx}", idx)
    return current


def _outcome(replayer, start, trace):
    try:
        return "ok", datum_hash(replayer(start, trace))
    except CorkCalcError as e:
        return type(e), str(e), e.step_index


def _tampered(trace):
    """One field changed at a time: the header's initial hash, each step's
    pre and post hash, and one parameter of each step (its first string or
    integer parameter: an id becomes unknown, an integer grows by one)."""
    bogus = "0" * 64
    yield replace(trace, initial=bogus)
    for k, step in enumerate(trace.steps):
        for field in ("pre", "post"):
            steps = list(trace.steps)
            steps[k] = replace(step, **{field: bogus})
            yield replace(trace, steps=tuple(steps))
        params = dict(step.params)  # a step's params are shared
        key = next(key for key in sorted(params) if isinstance(params[key], (str, int)))
        params[key] = "ghost" if isinstance(params[key], str) else params[key] + 1
        steps = list(trace.steps)
        steps[k] = replace(step, params=params)
        yield replace(trace, steps=tuple(steps))


def _recorded_traces():
    """(start datum, trace): every deletion script with n <= 4, and one
    deletion chain, a single trace of four deletions."""
    for n in (2, 3, 4):
        for x in all_sequences(n):
            for i in range(n):
                yield build_X(n, 1, x), deletion_script(n, 1, x, i)
    yield build_X(5, 2, "*0*00"), deletion_chain(5, 2, "*0*00")


def test_replay_matches_the_reference_on_recorded_and_tampered_traces():
    checked = 0
    for start, trace in _recorded_traces():
        expected = _outcome(reference_replay, start, trace)
        assert expected == ("ok", trace.final)
        assert _outcome(replay, start, trace) == expected
        for bad in _tampered(trace):
            expected = _outcome(reference_replay, start, bad)
            assert expected[0] != "ok"
            assert _outcome(replay, start, bad) == expected
            checked += 1
    assert checked == 96 * 10 + (1 + 12 * 3)  # a trace of k steps has 1 + 3k tamperings


# --- JSON only at the trace file's edge ----------------------------------------------------------

# sha256 of ``trace_to_text`` of the trace of each case of the default
# lemma-3-4-scripts grid, in ``iter_cases`` order (560 traces)
SCRIPTS_TRACES_SHA256 = "0bb176aa9bc0aa25affd471f60e51ede5e8dc388b0bca1eced1e6e3ae397743b"


def test_the_scripts_grid_writes_the_same_trace_bytes():
    from corkcalc import suites

    digest, count = hashlib.sha256(), 0
    for kind, n, m, x, i in suites.iter_cases("lemma-3-4-scripts", {}):
        trace = deletion_script(n, m, x, i) if kind == "step" else deletion_chain(n, m, x)
        digest.update(trace_to_text(trace).encode("utf-8"))
        count += 1
    assert count == 560 and digest.hexdigest() == SCRIPTS_TRACES_SHA256


@pytest.fixture
def json_calls(monkeypatch):
    """The calls that the trace layer makes to ``json``, by function name."""
    calls = Counter()

    def counted(name):
        real = getattr(json, name)
        return lambda *args, **kw: calls.update([name]) or real(*args, **kw)

    monkeypatch.setattr(moves, "json", SimpleNamespace(dumps=counted("dumps"),
                                                       loads=counted("loads")))
    return calls


def test_recording_and_replaying_a_chain_calls_no_json(json_calls):
    start = build_X(5, 2, "*0*00")
    trace = deletion_chain(5, 2, "*0*00")
    assert datum_hash(replay(start, trace)) == trace.final
    assert len(trace.steps) == 12 and not json_calls


def test_each_trace_file_line_is_dumped_once_and_parsed_once(json_calls):
    trace = deletion_chain(5, 2, "*0*00")
    text = trace_to_text(trace)
    assert json_calls == {"dumps": 1 + len(trace.steps)}
    json_calls.clear()
    assert trace_from_text(text.replace("\n", "\n\n  \n", 2)) == trace  # blank lines skipped
    assert json_calls == {"loads": 1 + len(trace.steps)}


# --- the move-audit suite ----------------------------------------------------------------------------------

def test_move_audit_redraws_a_refused_twist(monkeypatch):
    from corkcalc import suites

    real = suites.apply_move
    refused = []

    def refuse_first_twist(d, move, params):
        if move == "twist_wheel" and not refused:
            refused.append(params)
            raise NotWheelFamilyError("twist refused")
        return real(d, move, params)

    monkeypatch.setattr(suites, "apply_move", refuse_first_twist)
    result = suites.run_case("move-audit", 0)  # walk 0 draws a twist
    assert refused
    assert result.ok, result.details
    assert result.details == "50 moves audited, 1 twists refused"
