import json

import pytest

from corkcalc import datum as datum_io
from corkcalc import scripts, suites
from corkcalc.cli import main
from corkcalc.families import build_C, build_W, build_X
from corkcalc.moves import Recorder, trace_to_text
from corkcalc.scripts import deletion_script
from corkcalc.stein import FrontDocument, LegendrianFront, front_to_text, wheel_front_events


def run(args):
    return main(args)


def test_gen_head_family(tmp_path):
    out = tmp_path / "c31.json"
    assert run(["gen", "C", "3", "1", "-o", str(out)]) == 0
    d = datum_io.loads(out.read_text())
    assert d.meta_map["sequence"] == "*00"


def test_gen_round_trip_is_identical(tmp_path):
    out = tmp_path / "x.json"
    assert run(["gen", "X", "4", "2", "--seq", "*0*0", "-o", str(out)]) == 0
    d = datum_io.loads(out.read_text())
    assert d == build_X(4, 2, "*0*0")
    assert datum_io.dumps(d) == out.read_text()


def test_gen_alternating_wheel(tmp_path):
    out = tmp_path / "f.json"
    assert run(["gen", "F", "2", "2", "-o", str(out)]) == 0
    assert datum_io.loads(out.read_text()).meta_map["sequence"] == "0*0*"


def test_gen_bad_parameters_exit_2(tmp_path):
    assert run(["gen", "C", "0", "1", "-o", str(tmp_path / "x.json")]) == 2
    assert run(["gen", "X", "3", "1", "-o", str(tmp_path / "x.json")]) == 2
    assert run(["gen", "Z", "3", "1", "-o", str(tmp_path / "x.json")]) == 2
    assert run(["gen", "Q", "3", "1"]) == 2


@pytest.mark.parametrize("args, unread", [
    (["C", "2", "1", "--seq", "*0"], "--seq"),
    (["X", "2", "1", "--seq", "*0", "--i", "3"], "--i"),
], ids=["C-seq", "X-i"])
def test_gen_flag_the_family_does_not_read_exit_2(capsys, args, unread):
    assert run(["gen", *args]) == 2
    captured = capsys.readouterr()
    assert f"does not read {unread}" in captured.err and captured.out == ""


@pytest.mark.parametrize("n", ["-5", "0", "2"])
def test_gen_cm_reads_its_wheel_size_exit_2(capsys, n):
    assert run(["gen", "Cm", n, "2"]) == 2
    captured = capsys.readouterr()
    assert "needs n = 1" in captured.err and captured.out == ""


def test_gen_cm_is_the_wheel_of_size_one(capsys):
    assert run(["gen", "Cm", "1", "2"]) == 0
    assert datum_io.loads(capsys.readouterr().out) == build_C(1, 2)


def test_invariants_report_fields(tmp_path, capsys):
    path = tmp_path / "c11.json"
    run(["gen", "C", "1", "1", "-o", str(path)])
    assert run(["invariants", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"h1", "b2", "boundary_invariants", "is_homology_sphere",
                           "pi1_certified_trivial", "form_diag_minus_one"}
    assert report["b2"] == 0 and report["is_homology_sphere"]
    assert report["pi1_certified_trivial"] is True


def test_invariants_of_decorated_wheel(tmp_path, capsys):
    path = tmp_path / "w31.json"
    path.write_text(datum_io.dumps(build_W(3, 1)))
    assert run(["invariants", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["b2"] == 3
    assert report["form_diag_minus_one"] is True


def test_invariants_on_truncated_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    good = datum_io.dumps(build_X(2, 1, "*0"))
    path.write_text(good[: len(good) // 2])
    assert run(["invariants", str(path)]) == 2


def test_invariants_missing_file_exit_3(tmp_path):
    assert run(["invariants", str(tmp_path / "nope.json")]) == 3


def test_verify_internal_error_exit_4(monkeypatch, capsys):
    # an exception that is not a CorkCalcError is a fault of corkcalc, and
    # must not read as a failed verification (exit 1)
    cases, _ = suites._SUITES["thm-1-7-arith"]

    def broken(case):
        raise AssertionError("internal error: witness does not verify")

    monkeypatch.setitem(suites._SUITES, "thm-1-7-arith", (cases, broken))
    assert run(["verify", "thm-1-7-arith", "--l", "1", "--n", "1"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error: AssertionError") and err.count("\n") == 1


def test_verify_small_sweep(tmp_path):
    out = tmp_path / "r.json"
    assert run(["verify", "lemma-2-2", "--n-max", "3", "--m-max", "1",
                "-o", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["passed"] and report["total"] == 14


def test_verify_alias(tmp_path):
    out = tmp_path / "r.json"
    assert run(["verify", "contractibility", "--n-max", "2", "--m-max", "1",
                "-o", str(out)]) == 0


def test_verify_unknown_suite():
    assert run(["verify", "no-such-suite"]) == 2


def test_verify_surface_sum_single_pair(tmp_path, capsys):
    assert run(["verify", "thm-1-7-arith", "--l", "2", "--n", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["total"] == 1
    assert "fails" in report["cases"][0]["details"]  # embedding precondition reported


def test_verify_beyond_the_former_data_grid(tmp_path):
    for args in (["verify", "prop-2-6", "--m-max", "4"],
                 ["verify", "stein-framings", "--n-max", "7"],
                 ["verify", "thm-1-7-arith", "--l", "5"],
                 ["gen", "E", "7", "1"]):
        assert run(args + ["-o", str(tmp_path / "out.json")]) == 0, args


def test_verify_pool_writes_the_serial_report(tmp_path):
    serial, pooled = tmp_path / "serial.json", tmp_path / "pooled.json"
    assert run(["verify", "thm-1-7-arith", "--jobs", "1", "-o", str(serial)]) == 0
    assert run(["verify", "thm-1-7-arith", "--jobs", "2", "-o", str(pooled)]) == 0
    assert pooled.read_bytes() == serial.read_bytes()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_verify_jobs_below_one_exit_2(capsys, jobs):
    assert run(["verify", "cork-order", "--n-max", "2", "--jobs", jobs]) == 2
    captured = capsys.readouterr()
    assert "--jobs" in captured.err and captured.out == ""


@pytest.mark.parametrize("args", [
    ["thm-1-7-arith", "--l", "0"],
    ["thm-1-7-arith", "--n", "0"],
    ["lemma-2-2", "--n-max", "0"],
    ["lemma-2-2", "--n-max", "2", "--m-max", "-1"],
    ["lemma-2-2", "--n-max", "2", "--budget", "-5"],
    ["lemma-2-2", "--n-max", "x"],
])
def test_verify_grid_value_out_of_range_exit_2(capsys, args):
    assert run(["verify", *args]) == 2
    captured = capsys.readouterr()
    assert args[-2] in captured.err and captured.out == ""
    assert "<lambda>" not in captured.err


def test_budget_zero_is_legal_and_negative_exit_2(tmp_path, capsys):
    path = tmp_path / "c11.json"
    path.write_text(datum_io.dumps(build_C(1, 1)))
    pres = tmp_path / "p.json"
    pres.write_text(json.dumps({"generators": ["a"], "relators": [["a"]]}))
    # budget 0 applies no Tietze move, so nothing is certified trivial
    assert run(["verify", "lemma-2-2", "--n-max", "1", "--m-max", "1",
                "--budget", "0"]) == 1
    assert run(["invariants", str(path), "--budget", "0"]) == 0
    assert run(["simplify", str(pres), "--budget", "0"]) == 0
    capsys.readouterr()
    for args in (["invariants", str(path)], ["simplify", str(pres)]):
        assert run(args + ["--budget", "-1"]) == 2
        captured = capsys.readouterr()
        assert "--budget" in captured.err and captured.out == ""


@pytest.mark.parametrize("args, unread", [
    (["prop-2-6", "--budget", "0"], "budget"),
    (["cork-order", "--n-max", "2", "--l", "3", "--budget", "0"], "budget, l"),
], ids=["prop-2-6-budget", "cork-order-l-budget"])
def test_verify_flag_the_suite_does_not_read_exit_2(capsys, args, unread):
    assert run(["verify", *args]) == 2
    captured = capsys.readouterr()
    assert f"does not read {unread}" in captured.err and captured.out == ""


@pytest.mark.parametrize("suite", ["lemma-3-4-scripts", "w-family"])
def test_verify_empty_grid_exit_2(capsys, suite):
    assert run(["verify", suite, "--n-max", "1"]) == 2
    captured = capsys.readouterr()
    assert "no cases" in captured.err and captured.out == ""


def test_verify_markdown_format(capsys):
    assert run(["verify", "cork-order", "--n-max", "3", "--format", "md"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("#")


def test_replay_with_declared_target(tmp_path, capsys):
    datum_path = tmp_path / "x.json"
    run(["gen", "X", "3", "1", "--seq", "*00", "-o", str(datum_path)])
    trace = deletion_script(3, 1, "*00", 2)
    trace_path = tmp_path / "d.trace"
    trace_path.write_text(trace_to_text(trace))
    out_path = tmp_path / "result.json"
    assert run(["replay", str(datum_path), str(trace_path),
                "--out-datum", str(out_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["integrity"] == "ok" and report["target_isomorphic"]
    result = datum_io.loads(out_path.read_text())
    assert result.two_handles and report["final_hash"] == datum_io.datum_hash(result)


def test_replay_tampered_trace_exit_1(tmp_path, capsys):
    datum_path = tmp_path / "x.json"
    run(["gen", "X", "3", "1", "--seq", "*00", "-o", str(datum_path)])
    text = trace_to_text(deletion_script(3, 1, "*00", 2))
    trace_path = tmp_path / "bad.trace"
    trace_path.write_text(text.replace('"framing": 0', '"framing": 1', 1))
    assert run(["replay", str(datum_path), str(trace_path)]) == 1


def test_replay_wrong_target_exit_1(tmp_path, capsys):
    d = build_X(2, 1, "*0")
    datum_path = tmp_path / "x.json"
    datum_path.write_text(datum_io.dumps(d))
    rec = Recorder(d, target={"family": "X", "n": 2, "m": 1, "sequence": "00"})
    rec.apply("rotate", i=1)
    trace_path = tmp_path / "t.trace"
    trace_path.write_text(trace_to_text(rec.trace()))
    assert run(["replay", str(datum_path), str(trace_path)]) == 1


def test_replay_deletion_with_a_wrong_target_sequence_exit_1(tmp_path, capsys):
    # the bare result of a deletion is isomorphic to every bare wheel of its
    # size; its dotted circles still spell *0, which "00" is no rotation of
    datum_path = tmp_path / "x.json"
    datum_path.write_text(datum_io.dumps(build_X(3, 1, "*0*")))
    text = trace_to_text(deletion_script(3, 1, "*0*", 2))
    trace_path = tmp_path / "t.trace"
    trace_path.write_text(text.replace('"sequence": "*0"', '"sequence": "00"', 1))
    assert run(["replay", str(datum_path), str(trace_path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["integrity"] == "ok" and report["target_isomorphic"] is False


def _replay_c21(tmp_path, trace_lines):
    datum_path = tmp_path / "c21.json"
    datum_path.write_text(datum_io.dumps(build_C(2, 1)))
    trace_path = tmp_path / "t.trace"
    trace_path.write_text("\n".join(json.dumps(line) for line in trace_lines) + "\n")
    return run(["replay", str(datum_path), str(trace_path)])


def _c21_header(**extra):
    return {"format": "corkcalc-trace/1", "initial": datum_io.datum_hash(build_C(2, 1)),
            "target": None, **extra}


@pytest.mark.parametrize("move", ["twist_wheel", "rotate"])
def test_replay_empty_wheel_sequence_exit_2(tmp_path, capsys, move):
    # the datum fails validation on load, before any move reads its sequence
    c11 = build_C(1, 1)
    d = c11.replace(meta=c11.meta_map | {"sequence": "", "n": 0})
    datum_path = tmp_path / "c11.json"
    datum_path.write_text(datum_io.dumps(d))
    start = datum_io.datum_hash(d)
    header = {"format": "corkcalc-trace/1", "initial": start, "target": None}
    step = {"move": move, "params": {"i": 1}, "pre": start, "post": start}
    trace_path = tmp_path / "t.trace"
    trace_path.write_text("\n".join(json.dumps(line) for line in (header, step)) + "\n")
    assert run(["replay", str(datum_path), str(trace_path)]) == 2
    captured = capsys.readouterr()
    assert "META_INCONSISTENT" in captured.err and captured.out == ""


def test_replay_header_not_an_object_exit_2(tmp_path, capsys):
    assert _replay_c21(tmp_path, [["corkcalc-trace/1"]]) == 2
    assert "trace header must be a JSON object" in capsys.readouterr().err


def test_replay_step_missing_param_exit_2(tmp_path, capsys):
    header = _c21_header()
    step = {"move": "attach_2handle", "params": {"id": "x", "word": []},
            "pre": header["initial"], "post": header["initial"]}
    assert _replay_c21(tmp_path, [header, step]) == 2
    assert "lacks framing" in capsys.readouterr().err


def test_replay_target_missing_m_exit_2(tmp_path, capsys):
    header = _c21_header(target={"family": "C", "n": 2, "sequence": "*0"})
    assert _replay_c21(tmp_path, [header]) == 2
    assert "trace target" in capsys.readouterr().err


@pytest.mark.parametrize("target", [
    {"family": "C", "n": True, "m": True, "sequence": "*"},
    {"family": "C", "n": 1, "m": 1, "sequence": "x"},
    {"family": 5, "n": 1, "m": 1, "sequence": "*"},
    {"family": "C", "n": 1, "m": 1, "sequence": "*", "extra": 0},
    {"family": "C", "n": 2, "m": 1, "sequence": "*"},
    {"family": "C", "n": 1, "m": 0, "sequence": "*"},
], ids=["boolean-n-and-m", "bad-sequence-symbol", "integer-family", "extra-key",
        "n-not-the-sequence-length", "zero-m"])
def test_replay_malformed_target_exit_2(tmp_path, capsys, target, monkeypatch):
    # an empty trace on the datum of gen C 1 1, which the target would match;
    # the file is refused before any replay
    monkeypatch.setattr(scripts, "replay", None)
    datum_path = tmp_path / "c11.json"
    datum_path.write_text(datum_io.dumps(build_C(1, 1)))
    header = {"format": "corkcalc-trace/1", "target": target,
              "initial": datum_io.datum_hash(build_C(1, 1))}
    trace_path = tmp_path / "t.trace"
    trace_path.write_text(json.dumps(header) + "\n")
    assert run(["replay", str(datum_path), str(trace_path)]) == 2
    captured = capsys.readouterr()
    assert "trace target" in captured.err and captured.out == ""


@pytest.mark.parametrize("field, value", [
    ("initial", 5), ("initial", "abc"), ("initial", "A" * 64),
    ("pre", 5), ("pre", None), ("post", []), ("post", "0" * 63 + "g"),
], ids=["integer-initial", "short-initial", "uppercase-initial", "integer-pre",
        "null-pre", "list-post", "non-hex-post"])
def test_replay_malformed_hash_exit_2(tmp_path, capsys, field, value):
    # a one-step trace on the datum of gen C 2 1 with one hash field malformed
    c21 = build_C(2, 1)
    rec = Recorder(c21)
    rec.apply("rotate", i=1)
    header, step = (json.loads(line) for line in trace_to_text(rec.trace()).splitlines())
    (header if field == "initial" else step)[field] = value
    assert _replay_c21(tmp_path, [header, step]) == 2
    captured = capsys.readouterr()
    assert f"{field} must be a datum hash" in captured.err and captured.out == ""


def test_replay_report_goes_to_out_when_integrity_fails(tmp_path, capsys):
    datum_path = tmp_path / "x.json"
    datum_path.write_text(datum_io.dumps(build_X(3, 1, "*00")))
    header, *steps = trace_to_text(deletion_script(3, 1, "*00", 2)).splitlines()
    step = json.loads(steps[1])
    step["post"] = "0" * 64
    trace_path = tmp_path / "bad.trace"
    trace_path.write_text("\n".join([header, steps[0], json.dumps(step), steps[2]]) + "\n")
    out_path, datum_out = tmp_path / "report.json", tmp_path / "result.json"
    assert run(["replay", str(datum_path), str(trace_path), "-o", str(out_path),
                "--out-datum", str(datum_out)]) == 1
    assert capsys.readouterr().out == ""
    report = json.loads(out_path.read_text())
    assert report["integrity"] == "failed" and report["step"] == 1
    assert not datum_out.exists()


def test_simplify_command(tmp_path, capsys):
    pres = tmp_path / "p.json"
    pres.write_text(json.dumps({"generators": ["a"], "relators": [["a"]]}))
    assert run(["simplify", str(pres)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["certified_trivial"] is True


def test_simplify_bad_file_exit_2(tmp_path):
    pres = tmp_path / "p.json"
    pres.write_text("{]")
    assert run(["simplify", str(pres)]) == 2


@pytest.mark.parametrize("text", ["1" * 5000, "[" * 100_000 + "]" * 100_000],
                         ids=["overlong-integer", "deep-nesting"])
@pytest.mark.parametrize("command", ["invariants", "replay", "simplify"])
def test_json_the_decoder_refuses_exit_2(tmp_path, capsys, command, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    datum_path = tmp_path / "c21.json"
    datum_path.write_text(datum_io.dumps(build_C(2, 1)))
    files = {"invariants": [bad], "replay": [datum_path, bad], "simplify": [bad]}[command]
    assert run([command, *map(str, files)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


@pytest.mark.parametrize("doc", [
    {"generators": ["a"], "relators": "a"},
    {"generators": ["a"], "relators": 1},
    {"generators": "ab", "relators": []},
    {"generators": ["a", "a"], "relators": []},
    [],
    7,
    {"generators": ["a"], "relators": [["a"]], "extra": 1},
    {"generators": [""], "relators": []},
    {"generators": ["a"], "relators": [["z"]]},
    {"generators": ["a"], "relators": [["a", 1]]},
])
def test_simplify_malformed_presentation_exit_2(tmp_path, capsys, doc):
    pres = tmp_path / "p.json"
    pres.write_text(json.dumps(doc))
    assert run(["simplify", str(pres)]) == 2
    captured = capsys.readouterr()
    assert "bad presentation file" in captured.err and captured.out == ""
    assert "list indices" not in captured.err


def _write_wheel_front(path, n, m):
    events, corr = wheel_front_events(n, m)
    doc = FrontDocument(LegendrianFront(tuple(events)), tuple(sorted(corr.items())))
    path.write_text(front_to_text(doc))


def test_stein_check_command(tmp_path):
    datum_path = tmp_path / "c21.json"
    run(["gen", "C", "2", "1", "-o", str(datum_path)])
    front_path = tmp_path / "C_2_1.front"
    _write_wheel_front(front_path, 2, 1)
    assert run(["stein-check", str(datum_path), str(front_path)]) == 0


def test_stein_check_missing_front_exit_3(tmp_path):
    datum_path = tmp_path / "c21.json"
    run(["gen", "C", "2", "1", "-o", str(datum_path)])
    assert run(["stein-check", str(datum_path), str(tmp_path / "nope.front")]) == 3


def test_stein_check_front_flag_line_exit_2(tmp_path, capsys):
    # front files carry no provenance records: a flag line is a malformed event
    datum_path = tmp_path / "c21.json"
    run(["gen", "C", "2", "1", "-o", str(datum_path)])
    front_path = tmp_path / "C_2_1.front"
    _write_wheel_front(front_path, 2, 1)
    front_path.write_text("flag drawn by hand\n" + front_path.read_text())
    assert run(["stein-check", str(datum_path), str(front_path)]) == 2
    captured = capsys.readouterr()
    assert "line 1" in captured.err and captured.out == ""


def test_stein_check_failure_exit_1(tmp_path, capsys):
    # wrong wheel size: every handle still maps, but framings disagree with tb;
    # the wheel meta is dropped so the datum stays valid after the reframing
    datum_path = tmp_path / "w.json"
    d = build_X(1, 1, "*")
    bad = d.replace(meta=(), two_handles=tuple(
        h.__class__(h.id, h.word, -3) for h in d.two_handles))
    datum_path.write_text(datum_io.dumps(bad))
    front_path = tmp_path / "C_1_1.front"
    _write_wheel_front(front_path, 1, 1)
    assert run(["stein-check", str(datum_path), str(front_path)]) == 1


def _write_datum(path, *two_handles, one_handles=("a",)):
    doc = {"format": "corkcalc-datum/1", "meta": {}, "one_handles": list(one_handles),
           "three_handles": 0, "two_handles": list(two_handles)}
    path.write_text(json.dumps(doc))


def test_invariants_unknown_generator_exit_2(tmp_path, capsys):
    path = tmp_path / "ghost.json"
    _write_datum(path, {"framing": 0, "id": "h", "linking": [["a", 1]], "word": ["a", "b"]})
    assert run(["invariants", str(path)]) == 2
    captured = capsys.readouterr()
    assert "UNKNOWN_GENERATOR" in captured.err
    assert captured.out == ""


def test_invariants_linking_unknown_id_exit_2(tmp_path, capsys):
    path = tmp_path / "ghost_link.json"
    _write_datum(path, {"framing": 0, "id": "h", "linking": [["a", 1], ["ghost", 2]],
                        "word": ["a"]})
    assert run(["invariants", str(path)]) == 2
    captured = capsys.readouterr()
    assert "LINKING_UNKNOWN_ID" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("params", [
    {"move": "rotate", "params": {"i": "x"}},
    {"move": "attach_2handle", "params": {"id": "u", "word": [], "framing": "x"}},
    {"move": "attach_2handle", "params": {"id": "u", "word": "ab", "framing": 0}},
    {"move": "slide_2_over_1", "params": {"h": "a1", "g": "a0", "sign": 2}},
    {"move": "slide_2_over_1", "params": {"h": "a1", "g": "a0", "sign": 1, "end": "up"}},
    {"move": "slide_2_over_2", "params": {"h1": "a1", "h2": "b0", "sign": 0}},
    {"move": "blow_up", "params": {"id": "u", "sign": -2}},
], ids=["rotate-index-string", "attach-framing-string", "attach-word-string",
        "slide-over-1-sign-2", "slide-over-1-end-up", "slide-over-2-sign-0",
        "blow-up-sign-minus-2"])
def test_replay_wrongly_typed_param_exit_2(tmp_path, capsys, params):
    header = _c21_header()
    step = {**params, "pre": header["initial"], "post": header["initial"]}
    assert _replay_c21(tmp_path, [header, step]) == 2
    assert "must be" in capsys.readouterr().err


def test_replay_unknown_param_exit_2(tmp_path, capsys):
    rec = Recorder(build_C(2, 1))
    rec.apply("rotate", i=1)
    header, step = (json.loads(line) for line in trace_to_text(rec.trace()).splitlines())
    step["params"]["junk"] = [1, 2]
    assert _replay_c21(tmp_path, [header, step]) == 2
    captured = capsys.readouterr()
    assert "unknown param junk" in captured.err and captured.out == ""


def test_replay_refused_move_names_its_step(tmp_path, capsys):
    header = _c21_header()
    step = {"move": "slide_2_over_2", "params": {"h1": "ghost", "h2": "b0", "sign": 1},
            "pre": header["initial"], "post": header["initial"]}
    assert _replay_c21(tmp_path, [header, step]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["integrity"] == "failed" and report["step"] == 0


def _handle(hid, word, linking):
    return {"framing": 0, "id": hid, "linking": linking, "word": word}


@pytest.mark.parametrize("one_handles, records, code", [
    ((), [_handle("h1", [], [["h2", 1]]), _handle("h2", [], [])], "LINKING_ASYMMETRIC"),
    (("a",), [_handle("h", ["a"], [["a", 3]])], "EXPONENT_LINKING_MISMATCH"),
    (("a",), [_handle("h", ["a"], [])], "EXPONENT_LINKING_MISMATCH"),
], ids=["asymmetric-pair", "wrong-dotted-record", "missing-dotted-record"])
def test_invariants_disagreeing_records_exit_2(tmp_path, capsys, one_handles, records, code):
    path = tmp_path / "copies.json"
    _write_datum(path, *records, one_handles=one_handles)
    assert run(["invariants", str(path)]) == 2
    captured = capsys.readouterr()
    assert code in captured.err
    assert captured.out == ""
