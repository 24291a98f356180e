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

A deletion script doubles as the witness for the reverse inclusion: the
insertion of a symbol into a sequence embeds the smaller wheel manifold in
the larger one through the same homology cobordism, read backwards.
"""

from __future__ import annotations

from dataclasses import dataclass

from .datum import KirbyDatum
from .errors import BadIndexError, CorkCalcError
from .families import build_Cm, build_X
from .isomorphism import datum_isomorphic
from .moves import MoveTrace, Recorder, replay
from .sequences import STAR, check_sequence, dotted_sequence, is_constant, pair_ids


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


def deletion_script(n: int, m: int, x: str, i: int) -> MoveTrace:
    """Move trace deleting pair i from the wheel datum of x.

    Replaying it on build_X(n, m, x) yields a datum isomorphic to
    build_X(n-1, m, x with entry i deleted).
    """
    check_sequence(x)
    if len(x) != n or n < 2 or not 0 <= i < n:
        raise BadIndexError(f"bad deletion parameters n={n}, i={i}")
    start = build_X(n, m, x)
    target = {"family": "X", "n": n - 1, "m": m, "sequence": deleted_sequence(x, i)}
    rec = Recorder(start, target=target)
    _delete_steps(rec, i, x[i])
    return rec.trace()


def insertion_script(n: int, m: int, x: str, position: int, symbol: str) -> MoveTrace:
    """Embedding witness for inserting a symbol: the deletion script of the
    enlarged sequence at that position."""
    check_sequence(x)
    if not 0 <= position <= n or symbol not in "*0":
        raise BadIndexError(f"bad insertion parameters position={position}")
    enlarged = x[:position] + symbol + x[position:]
    return deletion_script(n + 1, m, enlarged, position)


def chain_deletion_indices(x: str) -> list[int]:
    """Deterministic index choices reducing x to a single star.

    While the sequence is longer than one entry, delete the smallest index
    whose removal keeps the sequence non-constant; when none exists the
    sequence has length two, and the non-star entry goes."""
    seq = x
    out = []
    while len(seq) > 1:
        choice = next((j for j in range(len(seq))
                       if not is_constant(deleted_sequence(seq, j))), None)
        if choice is None:
            non_star = [j for j in range(len(seq)) if seq[j] != STAR]
            choice = non_star[0] if non_star else 0
        out.append(choice)
        seq = deleted_sequence(seq, choice)
    return out


@dataclass(frozen=True)
class ChainStep:
    sequence: str
    index: int
    trace: MoveTrace


def deletion_chain(n: int, m: int, x: str) -> list[ChainStep]:
    """Composite of deletion scripts from x down to a single-pair datum.

    Each step's trace is recorded against the datum produced by the previous
    step, so surviving pairs keep their original labels throughout; replaying
    the traces in order reproduces the whole reduction."""
    check_sequence(x)
    if len(x) != n:
        raise BadIndexError(f"sequence length {len(x)} does not match n={n}")
    steps = []
    current = build_X(n, m, x)
    pairs = list(enumerate(x))
    for position in chain_deletion_indices(x):
        symbols = "".join(sym for _, sym in pairs)
        orig, sym = pairs[position]
        rec = Recorder(current)
        _delete_steps(rec, orig, sym)
        steps.append(ChainStep(symbols, position, rec.trace()))
        current = rec.current
        pairs.pop(position)
    return steps


# --- verification -------------------------------------------------------------

def check_trace(start: KirbyDatum, trace: MoveTrace) -> tuple[dict, KirbyDatum | None]:
    """Replay a trace and compare the result with the wheel it declares as
    its target, if any (isomorphic, with dotted circles that spell a rotation
    of its sequence): the report that ``corkcalc replay`` prints, and the
    result, or None when the hash chain, a move or the target fails."""
    try:
        result = replay(start, trace)
    except CorkCalcError as e:
        return {"integrity": "failed", "error": str(e),
                "step": getattr(e, "step_index", None)}, None
    report = {"integrity": "ok", "final_hash": trace.final}  # checked by replay
    target = trace.target_dict
    if target is not None:
        expected = build_X(target["n"], target["m"], target["sequence"],
                           family=target.get("family", "X"))
        report["target"] = target
        spelled, x = dotted_sequence(result.one_handles), target["sequence"]
        report["target_isomorphic"] = (spelled is not None and len(spelled) == len(x)
                                       and x in spelled + spelled  # a rotation of it
                                       and datum_isomorphic(result, expected) is not None)
        if not report["target_isomorphic"]:
            return report, None
    return report, result


def verify_deletion(n: int, m: int, x: str, i: int) -> bool:
    """Check the deletion script sharply: its trace replays to the smaller
    wheel it declares, and the surviving dotted roles are exactly those the
    sequence prescribes."""
    trace = deletion_script(n, m, x, i)
    report, result = check_trace(build_X(n, m, x), trace)
    expected_dotted = {pair_ids(j, sym)[0] for j, sym in enumerate(x) if j != i}
    return (report.get("target_isomorphic") is True
            and set(result.one_handles) == expected_dotted)


def verify_chain(n: int, m: int, x: str) -> bool:
    """Replay the whole chain; the final datum must match the basic
    two-component cork datum."""
    current = build_X(n, m, x)
    for step in deletion_chain(n, m, x):
        current = replay(current, step.trace)
    return datum_isomorphic(current, build_Cm(m)) is not None
