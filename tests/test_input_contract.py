"""Every loader of outside input returns a value or raises ``CorkCalcError``,
nothing else.  Documents are fuzzed by mutating valid ones (a node replaced
by an arbitrary JSON value, removed, or given a sibling) and as raw text;
the inputs that once escaped are kept as explicit examples."""

import copy
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from corkcalc import datum, moves, scripts, stein
from corkcalc.errors import CorkCalcError
from corkcalc.families import build_C, build_W, build_X, load_elliptic_surface
from corkcalc.presentations import GroupPresentation

FUZZ = settings(max_examples=300, deadline=None)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=8)

# inputs that escaped a loader before it caught them
OVERLONG_INTEGER = "1" * 5000  # int() refuses more than 4300 digits
DEEP_NESTING = "[" * 100_000 + "]" * 100_000  # the JSON decoder recurses


def _paths(node, path=()):
    yield path
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _paths(child, path + (key,))


@st.composite
def mutated(draw, doc):
    """``doc`` after one to three random edits."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(json_values)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        edit = draw(st.sampled_from(("replace", "remove", "add")))
        if edit == "replace":
            parent[path[-1]] = draw(json_values)
        elif edit == "remove":
            del parent[path[-1]]
        elif isinstance(parent, dict):
            parent[draw(st.text(max_size=6))] = draw(json_values)
        else:
            parent.insert(path[-1], draw(json_values))
    return doc


def _value_or_corkcalc_error(load, arg):
    try:
        return load(arg)
    except CorkCalcError:
        return None


# --- datum files ------------------------------------------------------------------

_DATA = [json.loads(datum.dumps(d)) for d in
         (build_C(3, 1), build_W(3, 2), load_elliptic_surface(1))]


@FUZZ
@given(st.one_of(st.sampled_from(_DATA).flatmap(mutated).map(json.dumps),
                 st.text(max_size=40)))
@example(OVERLONG_INTEGER)
@example(DEEP_NESTING)
def test_datum_loads_returns_a_datum_or_raises_corkcalc_error(text):
    d = _value_or_corkcalc_error(datum.loads, text)
    if d is not None:
        datum.validate(d)


# --- trace files ------------------------------------------------------------------

def _recorded_trace():
    rec = moves.Recorder(build_W(3, 1), target={"family": "X", "n": 3, "m": 1,
                                                "sequence": "*00"})
    rec.apply("slide_2_over_1", h="m1_1", g="a0", sign=-1, end="front")
    rec.apply("attach_2handle", id="u", word=["a0"], framing=1, linking={"m1_1": 1})
    rec.apply("blow_up", id="v", sign=-1)
    rec.apply("slide_2_over_2", h1="u", h2="v", sign=1)
    rec.apply("rotate", i=1)
    rec.apply("twist_wheel", i=2)
    return rec.trace()


_STARTS = {"deletion": build_X(3, 1, "*00"), "recorded": build_W(3, 1)}
_TRACES = {"deletion": scripts.deletion_script(3, 1, "*00", 2),
           "recorded": _recorded_trace()}


def _lines(trace):
    return [json.loads(line) for line in moves.trace_to_text(trace).splitlines()]


def _as_text(doc) -> str:
    lines = doc if isinstance(doc, list) else [doc]
    return "\n".join(json.dumps(line) for line in lines) + "\n"


@FUZZ
@given(st.sampled_from(sorted(_TRACES)).flatmap(
    lambda name: st.tuples(st.just(name), mutated(_lines(_TRACES[name])).map(_as_text))))
def test_trace_from_text_and_its_check_return_a_value_or_raise_corkcalc_error(case):
    # a parsed trace also replays to a report or a CorkCalcError
    name, text = case
    trace = _value_or_corkcalc_error(moves.trace_from_text, text)
    if trace is not None:
        _value_or_corkcalc_error(lambda t: scripts.check_trace(_STARTS[name], t), trace)


@FUZZ
@given(st.sampled_from(sorted(_TRACES)), st.data())
def test_trace_step_with_a_param_its_move_does_not_name_raises_corkcalc_error(name, data):
    lines = _lines(_TRACES[name])
    step = data.draw(st.sampled_from(lines[1:]))
    named = moves.MOVES[step["move"]][1]
    step["params"][data.draw(st.text(max_size=6).filter(lambda k: k not in named))] = \
        data.draw(json_values)
    with pytest.raises(CorkCalcError, match="unknown param"):
        moves.trace_from_text(_as_text(lines))


@FUZZ
@given(st.text(max_size=60))
@example(OVERLONG_INTEGER)
@example(DEEP_NESTING)
@example('{"format": "corkcalc-trace/1", "initial": ' + OVERLONG_INTEGER + "}")
def test_trace_from_text_on_raw_text(text):
    _value_or_corkcalc_error(moves.trace_from_text, text)


# --- front files ------------------------------------------------------------------

_EVENTS, _CORRESPONDENCE = stein.wheel_front_events(2, 2)
_FRONT = stein.front_to_text(stein.FrontDocument(
    stein.LegendrianFront(tuple(_EVENTS)), tuple(sorted(_CORRESPONDENCE.items())))).splitlines()

tokens = st.sampled_from(("lcusp", "rcusp", "xpos", "xneg", "map", "flag", "-", "#",
                          "0", "1", "-1", "up", "down", "a0", "b1")) | st.text(max_size=4)
lines = st.lists(tokens, max_size=5).map(" ".join)


@st.composite
def edited_front(draw):
    """The wheel front's lines after one to three line edits."""
    out = list(_FRONT)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(out)))
        edit = draw(st.sampled_from(("replace", "remove", "add")))
        if edit == "add" or at == len(out):
            out.insert(at, draw(lines))
        elif edit == "remove":
            del out[at]
        else:
            out[at] = draw(lines)
    return "\n".join(out) + "\n"


@FUZZ
@given(edited_front() | st.text(max_size=60))
def test_front_from_text_returns_a_document_or_raises_corkcalc_error(text):
    _value_or_corkcalc_error(stein.front_from_text, text)


# --- presentation files -------------------------------------------------------------

_PRESENTATIONS = [{"generators": ["a", "b"], "relators": [["a", "-b", "a"], ["b"]]},
                  {"generators": ["x"], "relators": []}]


@FUZZ
@given(st.sampled_from(_PRESENTATIONS).flatmap(mutated) | json_values)
def test_presentation_from_dict_returns_a_value_or_raises_corkcalc_error(obj):
    _value_or_corkcalc_error(GroupPresentation.from_dict, obj)
