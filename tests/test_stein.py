import pytest

from corkcalc.datum import make_datum, two_handle
from corkcalc.errors import (CorrespondenceIncompleteError, FrontFormatError,
                             OddCuspImbalanceError)
from corkcalc.families import build_C
from corkcalc.stein import (DOWN, UP, FrontDocument, FrontEvent, FrontGeometry,
                            LegendrianFront, framed_zero_component_events,
                            front_from_text, front_to_text, linking_number,
                            max_tb_reference_events,
                            rot, stein_check, tb, wheel_front_events, writhe)


def front(events):
    return LegendrianFront(tuple(events))


def unknot_events(component):
    # the crossingless unknot: one left and one right cusp
    return [FrontEvent("lcusp", 0, component, UP), FrontEvent("rcusp", 0, component, DOWN)]


def test_crossingless_unknot():
    f = front(unknot_events("u"))
    assert writhe(f, "u") == 0
    assert tb(f, "u") == -1
    assert rot(f, "u") == 0


def test_max_tb_reference_counts():
    f = front(max_tb_reference_events("t"))
    assert writhe(f, "t") == 3
    assert tb(f, "t") == 1
    assert rot(f, "t") == 0


def test_twist_box_keeps_tb():
    for m in (1, 2, 3, 5):
        f = front(framed_zero_component_events("k", m))
        assert tb(f, "k") == 1, m
        assert writhe(f, "k") == 3 + 2 * (m - 1)
        assert rot(f, "k") == 0


def test_parallel_twist_box_drops_tb():
    # a negative full twist on parallel strands: two negative crossings, no cusps
    for k in (1, 2, 3):
        base = max_tb_reference_events("k")
        events = base[:5] + [FrontEvent("xneg", 1), FrontEvent("xneg", 1)] * k + base[5:]
        f = front(events)
        assert writhe(f, "k") == 3 - 2 * k
        assert tb(f, "k") == 1 - 2 * k


def test_stabilized_unknot_has_rotation():
    events = [
        FrontEvent("lcusp", 0, "u", UP),
        FrontEvent("lcusp", 1, "u", DOWN),
        FrontEvent("rcusp", 0, "u", DOWN),
        FrontEvent("rcusp", 0, "u", DOWN),
    ]
    f = front(events)
    assert tb(f, "u") == -2
    assert rot(f, "u") == 1


def test_tb_rot_parity_on_knot_fronts():
    fronts = [front(unknot_events("u")),
              front(max_tb_reference_events("t")),
              front(framed_zero_component_events("k", 3))]
    names = ["u", "t", "k"]
    for f, c in zip(fronts, names):
        assert (tb(f, c) + rot(f, c)) % 2 == 1


def test_two_component_linking():
    # clasped unknots with two mixed positive crossings -> lk = 1
    events = [
        FrontEvent("lcusp", 0, "x", UP),
        FrontEvent("lcusp", 1, "y", UP),
        FrontEvent("xpos", 0),
        FrontEvent("xpos", 2),
        FrontEvent("rcusp", 1, "x", DOWN),
        FrontEvent("rcusp", 0, "y", DOWN),
    ]
    f = front(events)
    assert set(f.components) == {"x", "y"}
    assert linking_number(f, "x", "y") == 1
    with pytest.raises(ValueError):
        linking_number(f, "x", "x")


def test_front_validation_errors():
    with pytest.raises(FrontFormatError):
        front([FrontEvent("lcusp", 0, "u", UP)])  # never closes
    with pytest.raises(FrontFormatError):
        front([FrontEvent("rcusp", 0, "u", UP)])  # nothing to close
    with pytest.raises(FrontFormatError):
        front([FrontEvent("lcusp", 5, "u", UP),
               FrontEvent("rcusp", 0, "u", DOWN)])  # bad level
    with pytest.raises(FrontFormatError):
        # one closed curve declared under two names
        front([FrontEvent("lcusp", 0, "u", UP),
               FrontEvent("rcusp", 0, "v", DOWN)])
    with pytest.raises(FrontFormatError):
        FrontEvent("xpos", 0, "u", None)  # crossings carry no component


def test_odd_cusp_imbalance_guard():
    f = front(unknot_events("u"))
    doctored = FrontGeometry(("u",), {"u": []}, {}, {"u": {"left": 1, "right": 1}},
                             {"u": {UP: 1, DOWN: 2}})
    object.__setattr__(f, "_geometry", doctored)
    with pytest.raises(OddCuspImbalanceError):
        rot(f, "u")


def test_stein_check_passes_on_bundled_wheel_fronts():
    for n in (1, 2, 3, 4):
        for m in (1, 2, 3):
            d = build_C(n, m)
            events, corr = wheel_front_events(n, m)
            report = stein_check(d, front(events), corr)
            assert report.passed, (n, m, report.to_dict())


def test_stein_check_fails_on_framing_deficit():
    # a 0-framed handle against a tb = -1 unknot front: deficit -2
    d = make_datum((), [two_handle("h", (), 0)])
    f = front(unknot_events("u"))
    report = stein_check(d, f, {"h": "u"})
    assert not report.passed
    assert report.rows[0].tb == -1 and report.rows[0].framing == 0


def test_stein_check_flags_linking_mismatch():
    d = make_datum((), [two_handle("h1", (), 0), two_handle("h2", (), 0)],
                   links={("h1", "h2"): 1})
    events = (framed_zero_component_events("x", 1)
              + framed_zero_component_events("y", 1))
    report = stein_check(d, front(events), {"h1": "x", "h2": "y"})
    assert not report.passed
    assert report.linking_mismatches


def test_stein_check_needs_total_correspondence():
    d = make_datum((), [two_handle("h", (), 0)])
    with pytest.raises(CorrespondenceIncompleteError):
        stein_check(d, front(unknot_events("u")), {})


def test_stein_check_monotone_under_split_addition():
    n, m = 2, 1
    d = build_C(n, m)
    events, corr = wheel_front_events(n, m)
    base = stein_check(d, front(events), corr)
    extended = make_datum(d.one_handles,
                          list(d.two_handles) + [two_handle("extra", (), -2)],
                          0, d.meta_map)
    events2 = events + unknot_events("spare")
    corr2 = dict(corr, extra="spare")
    report = stein_check(extended, front(events2), corr2)
    verdicts = {r.handle: r.ok for r in report.rows}
    for row in base.rows:
        assert verdicts[row.handle] == row.ok
    assert verdicts["extra"]  # framing -2 == tb(-1) - 1


def test_front_text_round_trip():
    events, corr = wheel_front_events(2, 2)
    doc = FrontDocument(front(events), tuple(sorted(corr.items())))
    text = front_to_text(doc)
    parsed = front_from_text(text)
    assert parsed == doc


def test_front_parse_errors_carry_line_numbers():
    with pytest.raises(FrontFormatError) as err:
        front_from_text("lcusp 0 u up\nbogus-line\n")
    assert err.value.line == 2
    with pytest.raises(FrontFormatError):
        front_from_text("lcusp zero u up\n")

