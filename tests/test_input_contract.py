"""Every loader of outside input returns a value or raises ``CorkCalcError``,
nothing else.  Documents are fuzzed by mutating valid ones (a node replaced
by an arbitrary JSON value, removed, or given a sibling) and as raw text;
the inputs that once escaped are kept as explicit examples.  A datum that
loads hashes as its reference serialization does, the family builders
return a valid datum or raise ``CorkCalcError`` on any arguments, and
``corkcalc replay``, ``invariants``, ``simplify`` and ``stein-check`` on
fuzzed files keep the CLI's exit-code contract: never 4, and 1 only for a
failed verification; so does ``replay`` on a trace nested at every depth
up to the recursion limit.
So do ``gen`` and ``verify`` on argument vectors drawn from their own
parsers' arguments."""

import argparse
import contextlib
import copy
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from corkcalc import cli, datum, families, moves, scripts, stein, suites
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


# ids and meta strings that JSON escapes: a quote, a backslash, controls, non-ASCII
ESCAPED = 'q"b\\c\x01\n\u00e9\u2028\U0001f600'
_ESCAPED_DATUM = json.dumps({
    "format": datum.DATUM_FORMAT, "one_handles": [ESCAPED, "a"], "three_handles": 1,
    "meta": {ESCAPED: [ESCAPED, 1.5, {"k": None}], "n": ESCAPED},
    "two_handles": [
        {"id": ESCAPED + "h", "word": [ESCAPED, "-a", "a", ESCAPED], "framing": -1,
         "linking": [[ESCAPED, 2], ["k" + ESCAPED, 3]]},
        {"id": "k" + ESCAPED, "word": [], "framing": 0, "linking": [[ESCAPED + "h", 3]]}]})


@FUZZ
@given(st.one_of(st.sampled_from(_DATA + [json.loads(_ESCAPED_DATUM)])
                 .flatmap(mutated).map(json.dumps),
                 st.text(max_size=40)))
@example(OVERLONG_INTEGER)
@example(DEEP_NESTING)
@example(_ESCAPED_DATUM)
def test_datum_loads_returns_a_datum_or_raises_corkcalc_error(text):
    d = _value_or_corkcalc_error(datum.loads, text)
    if d is not None:
        datum.validate(d)
        reference = json.dumps(datum.canonical_form(d), sort_keys=True, separators=(",", ":"))
        assert datum.datum_hash(d) == hashlib.sha256(reference.encode("utf-8")).hexdigest()


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


def _as_is_or_mutated(doc):
    return st.just(doc) | mutated(doc)


@FUZZ
@given(st.sampled_from(sorted(_TRACES)), st.data())
def test_a_trace_built_in_memory_replays_or_raises_corkcalc_error(name, data):
    # MoveTrace checks its target and MoveStep its params where they are
    # built, so replay and check_trace of what they accept end in a value
    # or a CorkCalcError
    recorded = _TRACES[name]
    target = data.draw(_as_is_or_mutated(recorded.target) | json_values, "target")
    edited = data.draw(st.integers(-1, len(recorded.steps) - 1), "edited step")

    def build(_):
        steps = tuple(moves.MoveStep(s.move, data.draw(mutated(s.params), "params")
                                     if k == edited else s.params, s.pre, s.post)
                      for k, s in enumerate(recorded.steps))
        return moves.MoveTrace(recorded.initial, steps, target)

    trace = _value_or_corkcalc_error(build, None)
    if trace is not None:
        _value_or_corkcalc_error(lambda t: moves.replay(_STARTS[name], t), trace)
        _value_or_corkcalc_error(lambda t: scripts.check_trace(_STARTS[name], t), trace)


@FUZZ
@given(st.sampled_from(sorted(_TRACES)).flatmap(lambda name: st.tuples(
    _as_is_or_mutated(json.loads(datum.dumps(_STARTS[name]))),
    _as_is_or_mutated(_lines(_TRACES[name])))))
def test_replay_of_fuzzed_files_keeps_the_exit_code_contract(case):
    # exit 1 means only that the check failed on a datum and trace that both load
    datum_doc, trace_doc = case
    with tempfile.TemporaryDirectory(prefix="corkcalc-replay-") as tmp:
        datum_path, trace_path = Path(tmp, "datum.json"), Path(tmp, "trace.jsonl")
        datum_path.write_text(json.dumps(datum_doc), encoding="utf-8")
        trace_path.write_text(_as_text(trace_doc), encoding="utf-8")
        code = cli.main(["replay", str(datum_path), str(trace_path),
                         "-o", str(Path(tmp, "report.json"))])
    assert code in (0, 1, 2, 3)
    start = _value_or_corkcalc_error(datum.loads, json.dumps(datum_doc))
    trace = _value_or_corkcalc_error(moves.trace_from_text, _as_text(trace_doc))
    if start is None or not datum.validate(start).ok or trace is None:
        assert code == 2
    else:
        _, result = scripts.check_trace(start, trace)
        assert code == (0 if result is not None else 1)


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


def _nested(depth: int) -> str:
    return "[" * depth + "1" + "]" * depth


def test_nesting_at_every_depth_keeps_the_exit_code_contract():
    # a step's param or the target's n nested up to the recursion limit is
    # parsed once and refused as a bad trace file, never an internal error
    start = build_C(2, 1)
    initial = datum.datum_hash(start)
    header = json.dumps({"format": moves.TRACE_FORMAT, "initial": initial, "target": None})
    with tempfile.TemporaryDirectory(prefix="corkcalc-nesting-") as tmp:
        datum_path, trace_path = Path(tmp, "datum.json"), Path(tmp, "trace.jsonl")
        datum_path.write_text(datum.dumps(start), encoding="utf-8")
        for depth in range(1, sys.getrecursionlimit() + 1):
            step = (f'{{"move": "rotate", "params": {{"i": {_nested(depth)}}}, '
                    f'"pre": "{initial}", "post": "{initial}"}}')
            target = (f'{{"format": "{moves.TRACE_FORMAT}", "initial": "{initial}", '
                      f'"target": {{"n": {_nested(depth)}, "m": 1, "sequence": "*0"}}}}')
            for text in (f"{header}\n{step}\n", f"{target}\n"):
                _value_or_corkcalc_error(moves.trace_from_text, text)
                trace_path.write_text(text, encoding="utf-8")
                with contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(["replay", str(datum_path), str(trace_path)])
                assert code == 2, (depth, text[:40])


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


# --- the other commands that read files ----------------------------------------------

def _cli(command, **texts):
    """The exit code of ``corkcalc command`` on files holding ``texts``, in order."""
    with tempfile.TemporaryDirectory(prefix="corkcalc-cli-") as tmp:
        paths = []
        for name, text in texts.items():
            paths.append(Path(tmp, name))
            paths[-1].write_text(text, encoding="utf-8")
        return cli.main([command, *map(str, paths), "-o", str(Path(tmp, "report.json"))])


def _loaded_datum(doc):
    """The datum of ``doc`` if it loads and validates, as the CLI requires; else None."""
    d = _value_or_corkcalc_error(datum.loads, json.dumps(doc))
    return d if d is not None and datum.validate(d).ok else None


def _node(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def renumbered(draw, doc):
    """``doc`` with one to three of its integers replaced by small ones: a
    document of the same shape, which mostly still loads and so reaches the
    engine with other framings, linkings and counts."""
    doc = copy.deepcopy(doc)
    ints = [path for path in _paths(doc) if path and type(_node(doc, path)) is int]
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(ints))
        _node(doc, path[:-1])[path[-1]] = draw(st.integers(-3, 3))
    return doc


_cli_data = st.sampled_from([json.loads(datum.dumps(d)) for d in (build_C(2, 2), build_W(3, 1))]
                            ).flatmap(lambda doc: _as_is_or_mutated(doc) | renumbered(doc))


@FUZZ
@given(_cli_data)
def test_invariants_of_fuzzed_datum_files_keeps_the_exit_code_contract(doc):
    # a report verifies nothing, so it never exits 1
    code = _cli("invariants", datum=json.dumps(doc))
    assert code in (0, 2, 3)
    if _loaded_datum(doc) is None:
        assert code == 2


@FUZZ
@given(st.sampled_from(_PRESENTATIONS).flatmap(_as_is_or_mutated) | json_values)
def test_simplify_of_fuzzed_presentation_files_keeps_the_exit_code_contract(obj):
    code = _cli("simplify", presentation=json.dumps(obj))
    assert code in (0, 2, 3)
    if _value_or_corkcalc_error(GroupPresentation.from_dict, obj) is None:
        assert code == 2


@FUZZ
@given(_cli_data, st.just("\n".join(_FRONT) + "\n") | edited_front())
def test_stein_check_of_fuzzed_files_keeps_the_exit_code_contract(doc, front_text):
    # exit 1 means only a failed framing report on files that both load
    code = _cli("stein-check", datum=json.dumps(doc), front=front_text)
    assert code in (0, 1, 2, 3)
    d = _loaded_datum(doc)
    front = _value_or_corkcalc_error(stein.front_from_text, front_text)
    if d is None or front is None:
        assert code == 2
    else:
        report = _value_or_corkcalc_error(
            lambda f: stein.stein_check(d, f.front, f.correspondence_dict), front)
        assert code == (2 if report is None else 0 if report.passed else 1)


# --- family builders ----------------------------------------------------------------

_BUILDERS = [(build, len(takes)) for build, takes in cli._FAMILIES.values()] + [
    (families.build_W_twisted, 3), (families.build_Z_twisted, 3),
    (families.load_elliptic_surface, 1)]

_ARGUMENTS = (st.integers(-2, 6) | st.booleans() | st.floats() | st.none()
              | st.text(alphabet="*0x1", max_size=5))


@FUZZ
@given(st.sampled_from(_BUILDERS).flatmap(lambda b: st.tuples(
    st.just(b[0]), st.lists(_ARGUMENTS, min_size=b[1], max_size=b[1]))))
def test_family_builders_return_a_valid_datum_or_raise_corkcalc_error(case):
    build, args = case
    d = _value_or_corkcalc_error(lambda a: build(*a), args)
    assert d is None or datum.validate(d).ok


# --- argument vectors ---------------------------------------------------------------

def _arguments(command):
    """The arguments of a ``corkcalc`` subcommand, as its parser declares them."""
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [a for a in sub.choices[command]._actions if not isinstance(a, argparse._HelpAction)]


# output paths, made real inside each run's own directory: a file, and one
# in a directory that does not exist
_OUT, _MISSING = "{out}", "{missing}"


_JUNK = st.sampled_from(["", "x", "-", "1.5", "0x2", " 3", "--", "*0"]) | st.text(max_size=4)


def _values(action):
    """Values for one argument, one in eight of them junk: else one of its
    choices, a small integer for an integer argument (small, so that a grid
    stays quick), or a sequence, a suite name or an output path where it
    names one."""
    if action.dest == "out":
        valid = st.sampled_from([_OUT, _MISSING])
    elif action.dest == "seq":
        valid = st.text(alphabet="*0x", max_size=5)
    elif action.dest == "suite":
        valid = st.sampled_from(suites.SUITE_NAMES + tuple(suites.ALIASES))
    elif action.choices:
        valid = st.sampled_from(sorted(action.choices))
    elif action.type is not None:
        valid = st.integers(-1, 4).map(str)
    else:
        return _JUNK
    return st.integers(0, 7).flatmap(lambda k: _JUNK if k == 0 else valid)


@st.composite
def argv(draw, command):
    """``command``, then each of its positionals (one may be left out), then
    a few of its flags in any order, each once with a drawn value."""
    actions = _arguments(command)
    words = [command]
    for action in actions:
        if not action.option_strings and draw(st.integers(0, 9)):
            words.append(draw(_values(action)))
    flags = [a for a in actions if a.option_strings]
    for action in draw(st.lists(st.sampled_from(flags), max_size=3, unique=True)):
        words += [draw(st.sampled_from(action.option_strings)), draw(_values(action))]
    return words


def _main(words):
    """The exit code of ``cli.main`` on ``words``, and what it wrote to
    stderr and to the output path."""
    with tempfile.TemporaryDirectory(prefix="corkcalc-cli-") as tmp:
        out = Path(tmp, "out.json")
        paths = {_OUT: str(out), _MISSING: str(Path(tmp, "missing", "out.json"))}
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([paths.get(w, w) for w in words])
        return code, stderr.getvalue(), out.read_text(encoding="utf-8") if out.exists() else None


@settings(FUZZ, max_examples=150)
@given(argv("gen"))
def test_gen_on_drawn_arguments_keeps_the_exit_code_contract(words):
    # gen verifies nothing; a datum it writes loads and validates
    code, _, written = _main(words)
    assert code in (0, 2, 3)
    if code == 0 and written is not None:
        assert datum.validate(datum.loads(written)).ok


@settings(FUZZ, max_examples=100)
@given(argv("verify"))
def test_verify_on_drawn_arguments_keeps_the_exit_code_contract(words):
    # exit 1 only from a suite that ran and failed a case
    code, stderr, _ = _main(words)
    assert code in (0, 1, 2, 3)
    assert (code == 1) is ("\nFAIL " in "\n" + stderr)
