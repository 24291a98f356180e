"""Property tests tying the move algebra to the sequence combinatorics."""

from hypothesis import given, settings, strategies as st

from corkcalc.datum import canonical_json, validate
from corkcalc.families import build_W, build_X
from corkcalc.invariants import boundary_h1, homology
from corkcalc.moves import rotate, slide_2_over_2, twist_wheel
from corkcalc.sequences import rotation_ids, shift

wheels = st.integers(1, 5).flatmap(
    lambda n: st.tuples(st.just(n),
                        st.integers(1, 3),
                        st.text(alphabet="*0", min_size=n, max_size=n)))


@given(wheels, st.integers(-6, 6))
def test_twist_wheel_realizes_the_shifted_sequence(params, i):
    n, m, x = params
    d = build_X(n, m, x)
    out = twist_wheel(d, i)
    assert canonical_json(out) == canonical_json(build_X(n, m, shift(x, i)))
    assert validate(out).ok


@given(wheels, st.integers(-6, 6))
def test_rotate_realizes_the_shifted_sequence(params, i):
    n, m, x = params
    d = build_X(n, m, x)
    out = rotate(d, i)
    assert canonical_json(out) == canonical_json(build_X(n, m, shift(x, i)))
    mapping = rotation_ids(n, i)
    assert sorted(mapping) == sorted(mapping.values())


@given(wheels, st.integers(0, 6), st.integers(0, 6))
def test_twist_wheel_composes_like_shifts(params, i, j):
    n, m, x = params
    d = build_X(n, m, x)
    assert canonical_json(twist_wheel(twist_wheel(d, i), j)) == \
        canonical_json(twist_wheel(d, i + j))


@given(st.integers(2, 4), st.integers(1, 2), st.data())
@settings(max_examples=40)
def test_slide_then_inverse_slide_is_identity(n, m, data):
    d = build_W(n, m)
    ids = list(d.handle_ids)
    h1 = data.draw(st.sampled_from(ids))
    h2 = data.draw(st.sampled_from([x for x in ids if x != h1]))
    sign = data.draw(st.sampled_from((1, -1)))
    out = slide_2_over_2(slide_2_over_2(d, h1, h2, sign), h1, h2, -sign)
    assert canonical_json(out) == canonical_json(d.replace(meta=out.meta_map))


@given(st.integers(2, 4), st.integers(1, 2), st.data())
@settings(max_examples=30)
def test_random_slides_keep_certificates(n, m, data):
    d = build_W(n, m)
    profile = homology(d)
    boundary = boundary_h1(d).invariant_factors
    for _ in range(data.draw(st.integers(1, 4))):
        ids = list(d.handle_ids)
        h1 = data.draw(st.sampled_from(ids))
        h2 = data.draw(st.sampled_from([x for x in ids if x != h1]))
        d = slide_2_over_2(d, h1, h2, data.draw(st.sampled_from((1, -1))))
    assert homology(d) == profile
    assert boundary_h1(d).invariant_factors == boundary
