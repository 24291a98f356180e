import pytest

from corkcalc import datum as datum_io, families
from corkcalc.datum import (CorkPair, canonical_json, validate, validate_cork_pair,
                            wheel_sequence)
from corkcalc.errors import BadIndexError, LengthMismatchError
from corkcalc.families import (build_C, build_Cm, build_D, build_E, build_F,
                               build_W, build_W_twisted, build_X, build_Z,
                               build_Z_twisted, c_sequence, d_sequence,
                               load_elliptic_surface)
from corkcalc.invariants import boundary_h1, homology
from corkcalc.isomorphism import datum_isomorphic
from corkcalc.moves import (blow_down, cancel_1_2, cork_twist_pair,
                            minus_one_sphere_present, rotate, slide_2_over_1,
                            twist_wheel)
from corkcalc.sequences import STAR, ZERO, all_sequences, pair_ids, period, shift
from corkcalc.linalg import det
from corkcalc.datum import full_linking_matrix
from corkcalc.words import single
from corkcalc.stein import (FrontDocument, LegendrianFront, front_from_text,
                            front_to_text, max_tb_reference_events, wheel_front_events)


def test_build_x_validates_for_all_small_sequences():
    for n in range(1, 7):
        for x in all_sequences(n):
            assert validate(build_X(n, 1, x)).ok, (n, x)


def test_wheels_share_their_pair_handles(monkeypatch):
    # two entries per pair index build_X was asked for, one per symbol
    monkeypatch.setattr(families, "_PAIR_HANDLES", {})
    d = build_X(3, 1, "*0*")
    assert sorted(families._PAIR_HANDLES) == [(j, s) for j in range(3) for s in (STAR, ZERO)]
    e = build_X(5, 2, "*00*0")
    assert len(families._PAIR_HANDLES) == 2 * 5
    for j, sym in enumerate("*0*"):
        dotted, framed = pair_ids(j, sym)
        assert d.handle(framed) is families._PAIR_HANDLES[j, sym]
    assert d.handle("b0") is e.handle("b0") is build_C(4, 3).handle("b0")
    assert d.handle("a1") is e.handle("a1")


def test_length_one_wheel_is_the_basic_cork():
    d = build_X(1, 3, "*")
    assert canonical_json(d.replace(meta={})) == canonical_json(
        build_Cm(3).replace(meta={}))
    # both dot choices give the same manifold datum up to relabeling
    assert datum_isomorphic(build_X(1, 1, "*"), build_X(1, 1, "0")) is not None


def test_head_family_is_a_wheel_instance():
    assert canonical_json(build_C(2, 5)) == canonical_json(
        build_X(2, 5, "*0", family="C"))
    assert c_sequence(4) == "*000"
    assert d_sequence(4) == "0***"


def test_alternating_family_sequence():
    f = build_F(2, 1)
    assert f.meta_map["sequence"] == "0*0*"
    assert f.meta_map["n"] == 4
    assert period(f.meta_map["sequence"]) == 2
    assert period(build_D(3, 1).meta_map["sequence"]) == 3


def test_bad_parameters():
    with pytest.raises(LengthMismatchError):
        build_X(3, 1, "*0")
    with pytest.raises(BadIndexError):
        build_X(0, 1, "")
    with pytest.raises(BadIndexError):
        build_C(0, 1)
    with pytest.raises(BadIndexError):
        build_W(1, 1)
    with pytest.raises(BadIndexError):
        build_Z(3, 1, 0)
    with pytest.raises(BadIndexError):
        build_Z(3, 1, 3)
    with pytest.raises(BadIndexError):
        build_W_twisted(3, 1, 3)


@pytest.mark.parametrize("family", [5, None, True, ("X",)])
def test_build_x_refuses_a_family_that_is_not_a_string(family):
    with pytest.raises(BadIndexError, match="family"):
        build_X(2, 1, "*0", family=family)


# each ended in a bare TypeError, or wrote its bool or float into meta
@pytest.mark.parametrize("build, args", [
    (build_X, (3, True, "*00")), (build_X, (2, 1.0, "*0")), (build_X, (True, 1, "*")),
    (build_C, (2.0, 1)), (build_D, (2.0, 1)), (build_E, ("2", 1)), (build_F, (1.5, 1)),
    (build_W, (2.0, 1)), (build_W, ("3", 1)), (build_Z, (3.0, 1, 1)), (build_Z, (3, 1, True)),
    (build_Z, ("3", 1, 1)), (build_W_twisted, (3, 1, 1.0)), (build_W_twisted, (3, 1, True)),
    (build_W_twisted, ("3", 1, 1)), (build_Z_twisted, (3, 1, True)), (build_C, (2, 1.0)),
    (build_Cm, (True,)), (load_elliptic_surface, (True,)), (load_elliptic_surface, (1.5,)),
])
def test_family_builders_refuse_a_non_integer_parameter(build, args):
    with pytest.raises(BadIndexError):
        build(*args)


def test_decorated_wheel_counts():
    w = build_W(4, 2)
    assert len(w.two_handles) == 4 + 6
    assert homology(w).b2 == 6
    assert boundary_h1(build_W(2, 1)).is_homology_sphere
    assert abs(det(full_linking_matrix(build_W(2, 1))[0])) == 1


def test_twisted_wheel_exposes_blowdowns():
    for i in (1, 2):
        wt = build_W_twisted(3, 1, i)
        blowable = [h for h in wt.two_handles if not h.word and h.framing == -1]
        assert len(blowable) == i
    assert canonical_json(build_W_twisted(3, 1, 0)) == canonical_json(build_W(3, 1))


def test_z_attachment_profile():
    z = build_Z(3, 1, 1)
    assert homology(z).b2 == 1
    assert z.handle("z").word.serialize() == ["b2"]
    zt = build_Z_twisted(3, 1, 1)
    assert minus_one_sphere_present(zt)
    blown = blow_down(zt, "z")
    assert homology(blown).b2 == 0
    assert boundary_h1(blown).is_homology_sphere


def test_every_family_is_contractible_at_desk_scale():
    from corkcalc.presentations import pi1_presentation, tietze_simplify

    builders = {"C": build_C, "D": build_D, "E": build_E, "F": build_F}
    for name, build in builders.items():
        for n in range(1, 7):
            for m in range(1, 4):
                d = build(n, m)
                assert homology(d).is_contractible_homology, (name, n, m)
                _, certified = tietze_simplify(pi1_presentation(d), 10_000)
                assert certified, (name, n, m)


def test_e_family_loads_and_checks():
    for n in (1, 2, 3):
        for m in (1, 2):
            d = build_E(n, m)
            assert homology(d).is_contractible_homology
            for j, sym in enumerate(wheel_sequence(d)):
                assert validate_cork_pair(d, CorkPair(*pair_ids(j, sym), m)) == []


def test_e_family_rotation_has_full_order():
    d = build_E(3, 1)
    current = d
    for step in range(1, 3):
        current = rotate(current, 1)
        assert canonical_json(current) != canonical_json(d)
    current = rotate(current, 1)
    assert canonical_json(current) == canonical_json(d)


def test_generated_documents_round_trip():
    # the parsers on the documents that once shipped as data files
    for n in range(1, 7):
        for m in range(1, 4):
            d = build_E(n, m)
            assert canonical_json(datum_io.loads(datum_io.dumps(d))) == canonical_json(d)
            events, corr = wheel_front_events(n, m)
            doc = FrontDocument(LegendrianFront(tuple(events)), tuple(sorted(corr.items())))
            assert front_from_text(front_to_text(doc)) == doc
    for l in range(1, 5):
        d = load_elliptic_surface(l)
        assert canonical_json(datum_io.loads(datum_io.dumps(d))) == canonical_json(d)
    trefoil = FrontDocument(LegendrianFront(tuple(max_tb_reference_events("trefoil"))))
    assert front_from_text(front_to_text(trefoil)) == trefoil


def test_wheel_convention_is_kept_by_every_wheel_move():
    for n in range(1, 7):
        for x in all_sequences(n):
            d = build_X(n, 1, x)
            pairs = [pair_ids(j, sym) for j, sym in enumerate(x)]
            assert set(d.one_handles) == {dotted for dotted, _ in pairs}
            assert all(d.handle(framed).word == single(dotted) for dotted, framed in pairs)
            assert wheel_sequence(d) == x
            for i in range(n):
                assert wheel_sequence(twist_wheel(d, i)) == shift(x, i)
                assert wheel_sequence(rotate(d, i)) == shift(x, i)
            for j, (dotted, framed) in enumerate(pairs):
                flipped = x[:j] + (ZERO if x[j] == STAR else STAR) + x[j + 1:]
                assert wheel_sequence(cork_twist_pair(d, dotted, framed)) == flipped
                assert wheel_sequence(slide_2_over_1(d, framed, dotted, 1)) is None
                assert wheel_sequence(cancel_1_2(d, dotted, framed)) is None


def test_wheels_are_isomorphic_exactly_when_their_sequences_are_shifts():
    # from two pairs on: X(1, m, "*") and X(1, m, "0") are the same cork
    for n in range(2, 6):
        for x in all_sequences(n):
            shifts = {shift(x, i) for i in range(n)}
            for y in all_sequences(n):
                witness = datum_isomorphic(build_X(n, 1, x), build_X(n, 1, y))
                assert (witness is not None) == (y in shifts), (x, y)
