import pytest

from corkcalc.datum import make_datum, two_handle
from corkcalc.errors import UnsupportedThreeHandlesError
from corkcalc.families import build_Cm, build_W, build_X, load_elliptic_surface
from corkcalc.invariants import (boundary_h1, char_numbers_from_datum,
                                 char_numbers_from_form, connected_sum, cp2,
                                 cp2_bar, char_zero, homology, intersection_form)
from corkcalc.linalg import IntMatrix, det, is_diag_minus_one, signature


def test_empty_datum_is_a_ball():
    prof = homology(make_datum())
    assert prof.is_contractible_homology
    assert prof.b2 == 0 and prof.h1_invariants == ()


def test_wheel_datum_is_contractible():
    prof = homology(build_X(3, 1, "*00"))
    assert prof.is_contractible_homology


def test_dotted_only_datum_has_free_h1():
    prof = homology(make_datum(("a", "b")))
    assert prof.h1_invariants == (0, 0)
    assert not prof.is_contractible_homology


def test_decorated_wheel_b2():
    for n in (2, 3, 4):
        prof = homology(build_W(n, 1))
        assert prof.b2 == n * (n - 1) // 2
        assert prof.h1_invariants == ()


def test_three_handles_unsupported():
    d = make_datum().replace(three_handles=1)
    with pytest.raises(UnsupportedThreeHandlesError):
        homology(d)
    with pytest.raises(UnsupportedThreeHandlesError):
        intersection_form(d)


def test_boundary_of_basic_cork():
    # the oracle 2x2 determinant of [[0,1],[1,0]] is -1
    assert det(IntMatrix.from_rows([[0, 1], [1, 0]])) == -1
    bh = boundary_h1(build_Cm(2))
    assert bh.invariant_factors == ()
    assert bh.is_homology_sphere


def test_boundary_of_zero_framed_unknot():
    d = make_datum((), [two_handle("u", (), 0)])
    bh = boundary_h1(d)
    assert bh.invariant_factors == (0,)
    assert not bh.is_homology_sphere


def test_boundary_of_decorated_wheel():
    for n in (2, 3, 4, 5):
        assert boundary_h1(build_W(n, 1)).is_homology_sphere


def test_intersection_form_trivial_for_contractible():
    q = intersection_form(build_X(4, 1, "*0*0"))
    assert q.rows == 0 and q.cols == 0


def test_intersection_form_single_handle():
    d = make_datum((), [two_handle("u", (), -1)])
    assert intersection_form(d) == IntMatrix.from_rows([[-1]])


def test_decorated_wheel_form_is_negative_identity():
    q = intersection_form(build_W(3, 1))
    assert q.rows == 3
    assert q.is_symmetric()
    verdict = is_diag_minus_one(q)
    assert verdict.verdict is True
    neg_id = IntMatrix.from_rows([[-1 if i == j else 0 for j in range(3)]
                                  for i in range(3)])
    wit = verdict.witness
    assert wit.transpose().mul(q).mul(wit) == neg_id


def test_form_rank_matches_b2_and_is_symmetric():
    from corkcalc.families import build_W_twisted, build_Z

    for d in (build_W(4, 1), build_X(3, 2, "0*0"), build_Z(4, 1, 2),
              build_W_twisted(4, 1, 3)):
        q = intersection_form(d)
        assert q.is_symmetric()
        assert q.rows == homology(d).b2


def test_characteristic_number_arithmetic():
    l, n = 2, 3
    target = connected_sum(cp2(2 * l - 1), cp2_bar(10 * l + n - 1))
    assert (target.b2, target.signature) == (25, -19)
    assert (char_zero().b2, char_zero().signature) == (0, 0)


def test_surface_numbers_computed_from_datum():
    for l in (1, 2, 3):
        surf = char_numbers_from_datum(load_elliptic_surface(l))
        assert (surf.b2, surf.signature) == (12 * l - 2, -8 * l)
        v = connected_sum(surf, cp2_bar(l + 1))
        target = connected_sum(cp2(2 * l - 1), cp2_bar(10 * l + l))
        assert (v.b2, v.signature) == (target.b2, target.signature)


def test_surface_datum_is_unimodular_and_generated_fresh():
    d = load_elliptic_surface(2)
    q = intersection_form(d)
    assert abs(det(q)) == 1
    assert signature(q) == (3, 19, 0)
    assert char_numbers_from_form(q).b2 == 22


def test_degenerate_form_rejected():
    with pytest.raises(ValueError):
        char_numbers_from_form(IntMatrix.zero(1, 1))
