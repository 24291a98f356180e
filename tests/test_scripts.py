from dataclasses import replace

import pytest

from corkcalc import scripts, suites
from corkcalc.datum import datum_hash, make_datum, two_handle
from corkcalc.errors import BadIndexError
from corkcalc.families import build_Cm, build_X
from corkcalc.isomorphism import datum_isomorphic
from corkcalc.moves import Recorder, replay
from corkcalc.scripts import (chain_deletion_indices, deleted_sequence,
                              deletion_chain, deletion_script, insertion_script,
                              verify_chain, verify_deletion)
from corkcalc.sequences import all_sequences, is_constant
from corkcalc.words import parse_word


def test_deletion_star_branch():
    # deleting a dotted-radial pair
    assert verify_deletion(3, 1, "*0*", 2)


def test_deletion_zero_branch():
    assert verify_deletion(3, 1, "*00", 2)


def declaring(target_sequence, real=scripts._record):
    """``scripts._record``, the recorder both verifiers call, with the
    declared target replaced by the wheel of ``target_sequence``."""
    def record(start, m, x, positions):
        trace, kept = real(start, m, x, positions)
        target = {"family": "X", "n": len(target_sequence), "m": m,
                  "sequence": target_sequence}
        return replace(trace, target=target), kept
    return record


def test_verify_deletion_checks_the_target_its_trace_declares(monkeypatch):
    monkeypatch.setattr(scripts, "_record", declaring("*0"))
    assert verify_deletion(3, 1, "*0*", 2)
    # a bare datum matches any wheel of its size, so the wrong target has three pairs
    monkeypatch.setattr(scripts, "_record", declaring("*0*"))
    assert not verify_deletion(3, 1, "*0*", 2)
    # one of its size whose sequence the surviving dots do not spell
    monkeypatch.setattr(scripts, "_record", declaring("00"))
    assert not verify_deletion(3, 1, "*0*", 2)


def test_check_trace_reports_what_replay_prints():
    trace = deletion_script(3, 1, "*00", 2)
    report, result = scripts.check_trace(build_X(3, 1, "*00"), trace)
    assert report == {"integrity": "ok", "final_hash": datum_hash(result),
                      "target": trace.target, "target_isomorphic": True}
    report, result = scripts.check_trace(build_X(3, 1, "*0*"), trace)
    assert result is None and report == {
        "integrity": "failed", "error": "initial datum does not match trace header",
        "step": -1}


def test_deletion_example_to_smaller_head_pattern():
    trace = deletion_script(3, 1, "*00", 2)
    result = replay(build_X(3, 1, "*00"), trace)
    assert datum_isomorphic(result, build_X(2, 1, "*0")) is not None


def test_deletion_example_second_family():
    trace = deletion_script(3, 1, "0**", 1)
    result = replay(build_X(3, 1, "0**"), trace)
    assert datum_isomorphic(result, build_X(2, 1, "0*")) is not None


def test_deletion_scripts_have_three_steps():
    for x, i in (("*00", 0), ("*00", 1)):
        assert len(deletion_script(3, 1, x, i).steps) == 3


def test_deletion_bad_parameters():
    with pytest.raises(BadIndexError):
        deletion_script(1, 1, "*", 0)
    with pytest.raises(BadIndexError):
        deletion_script(3, 1, "*00", 3)
    with pytest.raises(BadIndexError):
        deletion_script(2, 1, "*00", 0)
    # n, m and i must be ints, and a bool is not one
    for n, m, i in ((3, 1, "1"), (3, 1, 1.0), (3, 1, True), ("3", 1, 1), (3, True, 1),
                    (3, "1", 1), (3, 0, 1)):
        with pytest.raises(BadIndexError, match="bad deletion parameters"):
            deletion_script(n, m, "*00", i)


def test_deletion_exhaustive_small():
    for n in (2, 3):
        for x in all_sequences(n):
            if is_constant(x):
                continue
            for i in range(n):
                assert verify_deletion(n, 1, x, i), (n, x, i)


def test_chain_reaches_basic_cork():
    for x in ("*0", "0*", "*00", "0*0*", "00**0"):
        assert verify_chain(len(x), 1, x), x


def test_chain_indices_end_at_star():
    seq = "0*0*"
    for idx in chain_deletion_indices(seq):
        seq = deleted_sequence(seq, idx)
    assert seq == "*"


def test_chain_traces_compose():
    trace = deletion_chain(4, 2, "*0*0")
    start = build_X(4, 2, "*0*0")
    assert trace.initial == datum_hash(start)
    assert len(trace.steps) == 3 * len(chain_deletion_indices("*0*0"))
    assert trace.target == {"family": "X", "n": 1, "m": 2, "sequence": "*"}
    assert datum_isomorphic(replay(start, trace), build_Cm(2)) is not None
    report, result = scripts.check_trace(start, trace)
    assert report["target_isomorphic"] is True and result is not None


def test_chain_of_an_all_zero_sequence_declares_a_zero():
    trace = deletion_chain(3, 1, "000")
    assert trace.target == {"family": "X", "n": 1, "m": 1, "sequence": "0"}
    assert verify_chain(3, 1, "000")


def test_verify_chain_checks_the_target_its_trace_declares(monkeypatch):
    monkeypatch.setattr(scripts, "_record", declaring("*"))
    assert verify_chain(4, 1, "0*0*")
    # the surviving dot is a radial one, which "0" does not spell
    monkeypatch.setattr(scripts, "_record", declaring("0"))
    assert not verify_chain(4, 1, "0*0*")
    # a wheel of the wrong size
    monkeypatch.setattr(scripts, "_record", declaring("*0"))
    assert not verify_chain(4, 1, "0*0*")


def test_insertion_script_is_reverse_embedding_witness():
    # inserting a 0 into "*0" at position 1 embeds the small wheel in the larger
    trace = insertion_script(2, 1, "*0", 1, "0")
    result = replay(build_X(3, 1, "*00"), trace)
    assert datum_isomorphic(result, build_X(2, 1, "*0")) is not None


def test_insertion_bad_parameters():
    with pytest.raises(BadIndexError):
        insertion_script(2, 1, "*0", 5, "0")
    with pytest.raises(BadIndexError):
        insertion_script(2, 1, "*0", 0, "x")
    # only exactly one of the two symbols, and a sequence of length n
    for symbol in (None, "", "*0"):
        with pytest.raises(BadIndexError, match="bad insertion parameters"):
            insertion_script(2, 1, "*0", 0, symbol)
    for n in (1, 3):
        with pytest.raises(BadIndexError, match="bad insertion parameters"):
            insertion_script(n, 1, "*0", 0, "0")
    # n, m and position must be ints, and a bool is not one
    for n, m, position in ((2, 1, "1"), (2, 1, True), (2, 1, 1.0), (True, 1, 1),
                           (2, False, 1), (2.0, 1, 1)):
        with pytest.raises(BadIndexError, match="bad insertion parameters"):
            insertion_script(n, m, "*0", position, "0")


def test_a_bad_sequence_is_refused_as_a_bad_parameter():
    # not a bare ValueError from the sequence check
    with pytest.raises(BadIndexError, match="bad deletion parameters"):
        deletion_script(3, 1, "*x0", 1)
    with pytest.raises(BadIndexError, match="bad chain parameters"):
        verify_chain(3, 1, None)
    with pytest.raises(BadIndexError, match="bad insertion parameters"):
        insertion_script(2, 1, "x0", 0, "*")


def test_chain_bad_parameters():
    for n, m in ((3, 1), ("2", 1), (True, 1), (2, True), (2, 1.0), (2, 0)):
        with pytest.raises(BadIndexError, match="bad chain parameters"):
            deletion_chain(n, m, "*0")


@pytest.mark.parametrize("verify, args", [
    (verify_deletion, (3, 1, "*00", 1.0)),
    (verify_deletion, (3, 1, "*00", True)),
    (verify_deletion, (3, True, "*00", 1)),
    (verify_deletion, (3, 1, "*00", 3)),
    (verify_chain, ("3", 1, "*00")),
    (verify_chain, (3, True, "*00")),
    (verify_chain, (2, 1, "*00")),
])
def test_verifiers_refuse_bad_parameters(verify, args):
    with pytest.raises(BadIndexError, match="bad (deletion|chain) parameters"):
        verify(*args)


def test_deletion_trace_declares_target():
    trace = deletion_script(4, 1, "*000", 1)
    assert trace.target == {"family": "X", "n": 3, "m": 1, "sequence": "*00"}


def _counting_search(monkeypatch):
    calls = []

    def search(d1, d2):
        calls.append((d1, d2))
        return datum_isomorphic(d1, d2)

    monkeypatch.setattr(scripts, "datum_isomorphic", search)
    return calls


@pytest.mark.parametrize("handle, isomorphic", [
    (("b0", ["-a0"], 0), True),   # the spelled witness has the wrong orientation
    (("z", ["a0"], 0), True),     # the handle lies on no pair, so nothing is spelled for it
    (("b0", ["a0"], 1), False),   # a framing no relabeling mends
    (("b0", ["-a0"], 1), False),
])
def test_a_failed_spelled_witness_falls_back_to_the_search(monkeypatch, handle, isomorphic):
    hid, word, framing = handle
    start = make_datum(("a0",), [two_handle(hid, parse_word(word), framing)])
    trace = Recorder(start, target={"family": "X", "n": 1, "m": 1, "sequence": "*"}).trace()
    calls = _counting_search(monkeypatch)
    report, result = scripts.check_trace(start, trace)
    assert report["target_isomorphic"] is isomorphic and (result is not None) is isomorphic
    assert len(calls) == 1


def test_a_scripts_case_builds_its_start_wheel_once(monkeypatch):
    # one start wheel to record on and replay on, and the declared target
    built = []

    def counting_build_X(*args, **kwargs):
        built.append(args)
        return build_X(*args, **kwargs)

    monkeypatch.setattr(scripts, "build_X", counting_build_X)
    result = suites.run_suite("lemma-3-4-scripts")
    assert result.passed and len(built) == 2 * len(result.cases) == 2 * 560


def test_the_spelled_witness_decides_every_case_of_the_scripts_grid(monkeypatch):
    calls = _counting_search(monkeypatch)
    result = suites.run_suite("lemma-3-4-scripts", {"n_max": 5})
    assert result.passed and len(result.cases) == 560
    assert calls == []
