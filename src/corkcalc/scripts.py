"""Replayable proof scripts: pair deletions, chains, and their verification.

Deleting pair i from a wheel datum is a three-step script.  When the radial
circle is dotted: attach a 0-framed meridian of the dotted circle, cancel
the circle against it (the pair's own 0-framed handle slides free and
splits off), then cap the split handle with the modeled 3-handle.  When the
circular circle is dotted: attach a 0-framed meridian of the pair's
0-framed handle, cancel the pair's own dotted circle against that handle,
and cap the now-split meridian.  Either way the planar slide sequence of
the source pictures is invisible at datum fidelity; the replayed result is
checked against the freshly generated smaller wheel, which is where any
transcription error would surface.

A single deletion and a whole chain of them down to one pair have one
shape: a single ``MoveTrace`` recorded by ``_record``, in which surviving
pairs keep their labels and which declares the wheel of the surviving
symbols as its target.  So ``check_trace`` (the check ``corkcalc replay``
prints) verifies both, and ``verify_deletion`` and ``verify_chain`` add
only the rule that the surviving dotted circles are those x prescribes, on
the one start wheel of a case that they record and replay on.
The dotted circles of the result spell a rotation of the target's
sequence, and that spelling names the relabeling to try first: surviving
pair k goes to the target's pair k - r, with every sign +1.  The bounded
isomorphism search runs only when ``relabeling_witness`` refuses it, so a
result that is isomorphic to its target by another relabeling still
passes.

A deletion script doubles as the witness for the reverse inclusion: the
insertion of a symbol into a sequence embeds the smaller wheel manifold in
the larger one through the same homology cobordism, read backwards.
"""

from __future__ import annotations

from .datum import KirbyDatum
from .errors import BadIndexError, CorkCalcError
from .families import build_X
from .isomorphism import datum_isomorphic, relabeling_witness
from .moves import MoveTrace, Recorder, replay
from .sequences import (STAR, ZERO, check_sequence, check_wheel, dotted_pairs, is_constant,
                        is_int, pair_ids, pair_relabeling)


def _delete_steps(rec: Recorder, pair_index: int, symbol: str) -> None:
    dotted, framed = pair_ids(pair_index, symbol)
    if symbol == STAR:
        rec.apply("attach_2handle", id="del", word=[dotted], framing=0, linking={})
        rec.apply("cancel_1_2", g=dotted, h="del")
        rec.apply("remove_split_zero_handle", h=framed)
    else:
        rec.apply("attach_2handle", id="del", word=[], framing=0, linking={framed: 1})
        rec.apply("cancel_1_2", g=dotted, h=framed)
        rec.apply("remove_split_zero_handle", h="del")


def deleted_sequence(x: str, i: int) -> str:
    return x[:i] + x[i + 1:]


def _record(start: KirbyDatum, m: int, x: str, positions) -> tuple[MoveTrace, list]:
    """One trace deleting the entries at ``positions`` of the shrinking
    sequence from ``start``, the wheel datum of x, and the pairs (label j,
    symbol x[j]) that survive.  Surviving pairs keep their labels in x, and
    the trace declares the wheel of their symbols as its target."""
    kept = list(enumerate(x))
    deleted = [kept.pop(p) for p in positions]
    rest = "".join(sym for _, sym in kept)
    rec = Recorder(start, target={"family": "X", "n": len(rest), "m": m, "sequence": rest})
    for j, sym in deleted:
        _delete_steps(rec, j, sym)
    return rec.trace(), kept


def _check_parameters(what: str, n, m, x, in_range=lambda n: True, **indices) -> None:
    """Refuse ``what`` parameters with ``BadIndexError`` unless (n, m, x)
    pass ``check_wheel``, each index is an int (``is_int``) and
    ``in_range(n, **indices)`` holds."""
    check_wheel(n, m, x, what)
    if not (all(map(is_int, indices.values())) and in_range(n, **indices)):
        raise BadIndexError(f"bad {what} parameters n={n!r}, "
                            + ", ".join(f"{k}={v!r}" for k, v in indices.items()))


def _case(n: int, m: int, x: str, *i: int) -> tuple:
    """The ``_record`` arguments that delete pair i from the wheel datum of
    x or, with no i, its pairs at ``chain_deletion_indices(x)``."""
    if i:
        _check_parameters("deletion", n, m, x, lambda n, i: n >= 2 and 0 <= i < n, i=i[0])
        return build_X(n, m, x), m, x, list(i)
    _check_parameters("chain", n, m, x)
    return build_X(n, m, x), m, x, chain_deletion_indices(x)


def deletion_script(n: int, m: int, x: str, i: int) -> MoveTrace:
    """Move trace deleting pair i from the wheel datum of x.

    Replaying it on build_X(n, m, x) yields a datum isomorphic to
    build_X(n-1, m, x with entry i deleted), the target it declares.
    """
    return _record(*_case(n, m, x, i))[0]


def insertion_script(n: int, m: int, x: str, position: int, symbol: str) -> MoveTrace:
    """Embedding witness for inserting a symbol: the deletion script of the
    enlarged sequence at that position."""
    _check_parameters("insertion", n, m, x, lambda n, position: 0 <= position <= n,
                      position=position)
    if symbol not in (STAR, ZERO):
        raise BadIndexError(f"bad insertion parameters symbol={symbol!r}")
    enlarged = x[:position] + symbol + x[position:]
    return deletion_script(n + 1, m, enlarged, position)


def chain_deletion_indices(x: str) -> list[int]:
    """Deterministic index choices reducing x to a single entry.

    While the sequence is longer than one entry, delete the smallest index
    whose removal keeps the sequence non-constant; when none exists (a
    sequence of length two, or a constant one) its first non-star entry
    goes, or its first entry when it has none.  So the chain ends at a
    single star unless x has none: an all-``0`` x ends at ``"0"``.

    The choice follows from symbol counts: deleting entry 0 of a
    non-constant sequence longer than two leaves a constant one exactly
    when its first symbol occurs only once, and then deleting entry 1 does
    not."""
    seq = check_sequence(x)
    out = []
    while len(seq) > 1:
        if len(seq) > 2 and not is_constant(seq):
            choice = 1 if seq.count(seq[0]) == 1 else 0
        else:
            choice = max(seq.find(ZERO), 0)
        out.append(choice)
        seq = deleted_sequence(seq, choice)
    return out


def deletion_chain(n: int, m: int, x: str) -> MoveTrace:
    """One trace deleting pairs of the wheel datum of x at
    ``chain_deletion_indices(x)``, down to a single-pair datum.

    Surviving pairs keep their original labels throughout, and the trace
    declares the wheel of the last symbol as its target: the basic cork
    C_m's wheel ``*`` when x has a star."""
    return _record(*_case(n, m, x))[0]


# --- verification -------------------------------------------------------------

def check_trace(start: KirbyDatum, trace: MoveTrace) -> tuple[dict, KirbyDatum | None]:
    """Replay a trace and compare the result with the wheel it declares as
    its target, if any (isomorphic, with dotted circles that spell a rotation
    of its sequence): the report that ``corkcalc replay`` prints, and the
    result, or None when the hash chain, a move or the target fails.

    The spelling names a witness: the relabeling that takes the circles of
    the k-th surviving pair to the target's pair k - r, where the target's
    sequence starts at index r of the spelled one, all signs +1.  Only when
    ``relabeling_witness`` refuses it does the bounded search run."""
    report, result, _ = _check(start, trace)
    return report, result


def _check(start: KirbyDatum, trace: MoveTrace) -> tuple[dict, KirbyDatum | None, list | None]:
    """``check_trace``, and the (j, symbol) that the result's dotted circles
    name (``dotted_pairs``) when a target was checked, else None."""
    try:
        result = replay(start, trace)
    except CorkCalcError as e:
        return {"integrity": "failed", "error": str(e),
                "step": getattr(e, "step_index", None)}, None, None
    report = {"integrity": "ok", "final_hash": trace.final}  # checked by replay
    target = trace.target
    if target is None:
        return report, result, None
    expected = build_X(target["n"], target["m"], target["sequence"],
                       family=target.get("family", "X"))
    report["target"] = target
    pairs = dotted_pairs(result.one_handles) or []
    spelled, x = "".join(sym for _, sym in pairs), target["sequence"]
    # x is a rotation of the spelling exactly when it occurs in it doubled
    rotation = (spelled + spelled).find(x) if len(spelled) == len(x) else -1
    js = [j for j, _ in pairs]
    report["target_isomorphic"] = rotation >= 0 and (
        relabeling_witness(result, expected, pair_relabeling(js, rotation)) is not None
        or datum_isomorphic(result, expected) is not None)
    return report, (result if report["target_isomorphic"] else None), pairs


def _verify(start: KirbyDatum, m: int, x: str, positions) -> bool:
    """The trace ``_record`` makes replays on ``start``, the datum it was
    recorded on, to the wheel it declares, and the surviving dotted circles
    are exactly those x prescribes for the pairs it keeps."""
    trace, kept = _record(start, m, x, positions)
    report, _, dotted = _check(start, trace)
    return report.get("target_isomorphic") is True and dotted == kept


def verify_deletion(n: int, m: int, x: str, i: int) -> bool:
    """Check the deletion script sharply: its trace replays to the smaller
    wheel it declares, and the surviving dotted roles are exactly those the
    sequence prescribes."""
    return _verify(*_case(n, m, x, i))


def verify_chain(n: int, m: int, x: str) -> bool:
    """Check the deletion chain as sharply: its one trace replays to the
    single-pair wheel it declares, whose dotted circle is the one x
    prescribes for the surviving pair."""
    return _verify(*_case(n, m, x))
