"""Named verification suites behind the CLI ``verify`` command.

Every suite expands a parameter grid into independent pure cases; results
are sorted before aggregation so worker-pool execution is order-free.  A
suite's case builder names the grid keys it reads as keyword parameters,
with their defaults; a grid that gives any other key a value is refused.
Suite ids are stable interface strings; each also has a descriptive alias.
"""

from __future__ import annotations

import inspect
import math
import random
from dataclasses import dataclass

from . import families, scripts, sequences, stein
from .datum import (CorkPair, KirbyDatum, full_linking_matrix, validate,
                    validate_cork_pair, wheel_sequence)
from .errors import CorkCalcError
from .invariants import (HomologyProfile, boundary_h1, char_numbers_from_datum,
                         connected_sum, cp2, cp2_bar, homology, intersection_form)
from .isomorphism import datum_isomorphic
from .linalg import IntMatrix, congruence, is_diag_minus_one
from .moves import (apply_move, blow_down, minus_one_sphere_present, rotate,
                    slide_2_over_2)
from .presentations import TIETZE_BUDGET, pi1_presentation, tietze_simplify


@dataclass(frozen=True)
class CaseResult:
    case: str
    ok: bool
    details: str = ""

    def to_dict(self):
        return {"case": self.case, "ok": self.ok, "details": self.details}


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    cases: tuple[CaseResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.cases)

    @property
    def failures(self) -> tuple[CaseResult, ...]:
        return tuple(c for c in self.cases if not c.ok)

    def to_dict(self):
        return {"suite": self.suite, "passed": self.passed,
                "total": len(self.cases),
                "failed": len(self.failures),
                "cases": [c.to_dict() for c in self.cases]}


# --- contractibility sweep ---------------------------------------------------

# (content repr, budget) -> (homology profile, pi1 certified trivial).
# A wheel's twist parameter m lives only in ``meta``, so the data of one
# sequence recur for every m (and E(n, .) is C(n, .) under another tag).
# ``lemma-2-2`` also rotates each wheel onto the least rotation of its
# sequence, a relabeling of its circles that keeps its homology and the
# triviality of its pi1. The key is the exact content, so a hit checks that
# this case's rotated datum equals the one certified: each rotation class
# (binary necklace) is certified once, 261 classes for the 2,046 sequences
# of length <= 10. Cleared by ``run_suite``: it lives for one grid, and a
# forked pool worker inherits it empty.
_CONTRACTIBLE: dict[tuple[str, int], tuple[HomologyProfile, bool]] = {}


def _contractible(d: KirbyDatum, budget: int) -> tuple[HomologyProfile, bool]:
    """The homology profile of d and whether a Tietze run within ``budget``
    certifies its fundamental group trivial; the run is skipped (False)
    when the homology already rules out a ball."""
    # the repr of d's fields but meta: an exact key that, unlike the fields
    # themselves, does not keep every distinct datum of the grid alive
    content = (d.one_handles, [(h.id, h.word.letters, h.framing) for h in d.two_handles],
               d.three_handles, d.links)
    key = (repr(content), budget)
    known = _CONTRACTIBLE.get(key)
    if known is None:
        profile = homology(d)
        certified = (profile.is_contractible_homology
                     and tietze_simplify(pi1_presentation(d), budget)[1])
        known = _CONTRACTIBLE[key] = (profile, certified)
    return known


def _cases_contractibility(n_max=6, m_max=3, budget=TIETZE_BUDGET):
    return [(n, m, x, budget)
            for n in range(1, n_max + 1)
            for m in range(1, m_max + 1)
            for x in sequences.all_sequences(n)]


def _run_contractibility(case):
    n, m, x, budget = case
    cid = f"X({n},{m},{x})"
    _, i = sequences.least_rotation(x)
    profile, certified = _contractible(rotate(families.build_X(n, m, x), i), budget)
    if not profile.is_contractible_homology:
        return CaseResult(cid, False, f"homology profile {profile}")
    if not certified:
        return CaseResult(cid, False, "fundamental group not certified trivial")
    return CaseResult(cid, True)


# --- cork-order tables ---------------------------------------------------------

def _cases_cork_order(n_max=8):
    cases = [("seq", x) for n in range(1, n_max + 1) for x in sequences.all_sequences(n)]
    cases.append(("head", n_max))
    cases.append(("alternating", 0))
    return cases


def _run_cork_order(case):
    kind, arg = case
    if kind == "seq":
        x = arg
        n = len(x)
        p = sequences.period(x)
        if n % p:
            return CaseResult(f"period({x})", False, f"period {p} does not divide {n}")
        order = sequences.cork_order(x)
        if sequences.is_constant(x):
            ok = order is None
            return CaseResult(f"order({x})", ok,
                              "" if ok else f"constant sequence reported order {order}")
        ok = order == p > 1
        return CaseResult(f"order({x})", ok, "" if ok else f"order {order}, period {p}")
    if kind == "head":
        bad = [n for n in range(1, arg + 1)
               if sequences.period(families.c_sequence(n)) != n]
        return CaseResult("period(*0^{n-1}) = n", not bad, f"failures at n={bad}" if bad else "")
    # the alternating length-4 pattern: cork order two, rotation map order four
    p = sequences.period("*0*0")
    map_order = sequences.rotation_map_order(4)
    ok = p == 2 and map_order == 4 and sequences.cork_order("*0*0") == 2
    return CaseResult("alternating *0*0: order 2, map order 4", ok,
                      "" if ok else f"period {p}, map order {map_order}")


# --- small-family equalities ----------------------------------------------------

def _cases_family_equality(n_max=6, m_max=3):
    cases = [("equal2", m) for m in range(1, m_max + 1)]
    cases += [("distinct3", m) for m in range(1, m_max + 1)]
    cases += [("e-contractible", (n, m))
              for n in range(1, n_max + 1) for m in range(1, m_max + 1)]
    cases += [("e-pairs", (n, m))
              for n in range(1, n_max + 1) for m in range(1, m_max + 1)]
    return cases


def _run_family_equality(case):
    kind, arg = case
    if kind == "equal2":
        m = arg
        c2 = families.build_C(2, m)
        exchanged = families.dot_zero_exchange(families.build_D(2, m))
        ok = datum_isomorphic(c2, exchanged) is not None
        return CaseResult(f"C(2,{m}) == dot-zero-exchange(D(2,{m}))", ok)
    if kind == "distinct3":
        m = arg
        witness = datum_isomorphic(families.build_C(3, m), families.build_D(3, m))
        return CaseResult(f"C(3,{m}) vs D(3,{m}) has no wheel isomorphism",
                          witness is None)
    if kind == "e-contractible":
        n, m = arg
        _, certified = _contractible(families.build_E(n, m), TIETZE_BUDGET)
        return CaseResult(f"E({n},{m}) contractible", certified)
    n, m = arg
    d = families.build_E(n, m)
    seq = wheel_sequence(d)
    problems = ["no valid wheel metadata"] if seq is None else []
    for j, sym in enumerate(seq or ""):
        problems += validate_cork_pair(d, CorkPair(*sequences.pair_ids(j, sym), m))
    return CaseResult(f"E({n},{m}) pairs are separated cork pairs",
                      not problems, "; ".join(problems))


# --- deletion scripts -------------------------------------------------------------

def _cases_deletion(n_max=5, m_max=2):
    cases = []
    for n in range(2, n_max + 1):
        for m in range(1, m_max + 1):
            for x in sequences.all_sequences(n):
                if sequences.is_constant(x):
                    continue
                for i in range(n):
                    cases.append(("step", n, m, x, i))
                cases.append(("chain", n, m, x, -1))
    return cases


def _run_deletion(case):
    kind, n, m, x, i = case
    if kind == "step":
        ok = scripts.verify_deletion(n, m, x, i)
        return CaseResult(f"delete({x},{i}) m={m}", ok)
    ok = scripts.verify_chain(n, m, x)
    return CaseResult(f"chain({x}) m={m}", ok)


# --- decorated wheel family ---------------------------------------------------------

def _cases_w_family(n_max=6, m_max=2):
    cases = []
    for n in range(2, n_max + 1):
        for m in range(1, m_max + 1):
            cases.append(("base", n, m, 0))
            for i in range(1, n):
                cases.append(("twisted", n, m, i))
                cases.append(("obstruction", n, m, i))
    return cases


def _run_w_family(case):
    kind, n, m, i = case
    expected_b2 = n * (n - 1) // 2
    if kind == "base":
        d = families.build_W(n, m)
        prof = homology(d)
        if prof.b2 != expected_b2 or prof.h1_invariants:
            return CaseResult(f"W({n},{m})", False, f"profile {prof}")
        bh = boundary_h1(d)
        if not bh.is_homology_sphere:
            return CaseResult(f"W({n},{m})", False, f"boundary {bh.invariant_factors}")
        verdict = is_diag_minus_one(intersection_form(d))
        ok = verdict.verdict is True
        return CaseResult(f"W({n},{m})", ok, "" if ok else verdict.reason)
    if kind == "twisted":
        d = families.build_W_twisted(n, m, i)
        blown = d
        for k in range(i):
            target = next(h.id for h in blown.two_handles
                          if not h.word and h.framing == -1)
            blown = blow_down(blown, target)
        prof = homology(blown)
        bh = boundary_h1(blown)
        ok = (prof.b2 == expected_b2 - i and not prof.h1_invariants
              and bh.is_homology_sphere)
        return CaseResult(f"W({n},{m}) twist {i} + {i} blow-downs", ok,
                          "" if ok else f"b2={prof.b2}, boundary={bh.invariant_factors}")
    z = families.build_Z(n, m, i)
    if homology(z).b2 != 1:
        return CaseResult(f"Z({n},{m},{i})", False, "b2 != 1")
    twisted = families.build_Z_twisted(n, m, i)
    if not minus_one_sphere_present(twisted):
        return CaseResult(f"Z({n},{m},{i})", False, "no -1-sphere after twist")
    blown = blow_down(twisted, "z")
    prof = homology(blown)
    bh = boundary_h1(blown)
    ok = prof.b2 == 0 and bh.is_homology_sphere
    return CaseResult(f"Z({n},{m},{i})", ok,
                      "" if ok else f"b2={prof.b2}, boundary={bh.invariant_factors}")


# --- framing checks -------------------------------------------------------------------

def _cases_stein(n_max=4, m_max=3):
    cases = [("front", n, m) for n in range(1, n_max + 1) for m in range(1, m_max + 1)]
    cases.append(("reference", 0, 0))
    return cases


def _run_stein(case):
    kind, n, m = case
    if kind == "reference":
        front = stein.LegendrianFront(tuple(stein.max_tb_reference_events("trefoil")))
        value = stein.tb(front, "trefoil")
        return CaseResult("max-tb reference front has tb = 1", value == 1,
                          "" if value == 1 else f"tb = {value}")
    d = families.build_C(n, m)
    events, correspondence = stein.wheel_front_events(n, m)
    report = stein.stein_check(d, stein.LegendrianFront(tuple(events)), correspondence)
    detail = "" if report.passed else "; ".join(
        f"{r.handle}: framing {r.framing}, tb {r.tb}" for r in report.rows if not r.ok)
    return CaseResult(f"framing = tb - 1 on C({n},{m})", report.passed, detail)


# --- characteristic-number arithmetic ---------------------------------------------------

def surface_sum_precondition(l: int, n: int) -> bool:
    return l >= math.ceil((2 * n + 1) / 3)


def _cases_surface_sum(l=None, n=None):
    ls = list(range(1, 5)) if l is None else [l]
    ns = list(range(1, 6)) if n is None else [n]
    return [("pair", l, n) for l in ls for n in ns]


def _run_surface_sum(case):
    _, l, n = case
    pre = surface_sum_precondition(l, n)
    surface = char_numbers_from_datum(families.load_elliptic_surface(l))
    lhs = connected_sum(surface, cp2_bar(n))
    rhs = connected_sum(cp2(2 * l - 1), cp2_bar(10 * l + n - 1))
    ok = (lhs.b2, lhs.signature) == (rhs.b2, rhs.signature)
    detail = (f"b2 {lhs.b2} vs {rhs.b2}, sigma {lhs.signature} vs {rhs.signature}; "
              f"embedding precondition l >= ceil((2n+1)/3) {'holds' if pre else 'fails'}")
    return CaseResult(f"surface-sum arithmetic l={l} n={n}", ok, detail)


# --- randomized move audit ----------------------------------------------------------

AUDIT_WALKS = 20
AUDIT_MOVES = 50
_AUDIT_STARTS = (
    ("W(3,1)", lambda: families.build_W(3, 1)),
    ("W(4,2)", lambda: families.build_W(4, 2)),
    ("X(4,1,*0*0)", lambda: families.build_X(4, 1, "*0*0")),
    ("X(5,2,*00*0)", lambda: families.build_X(5, 2, "*00*0")),
    ("Z(4,1,2)", lambda: families.build_Z(4, 1, 2)),
    ("W(4,1) twist 2", lambda: families.build_W_twisted(4, 1, 2)),
)


def _cases_move_audit():
    return list(range(AUDIT_WALKS))


def _audit_options(d) -> list[str]:
    options = ["slide"] if len(d.handle_ids) >= 2 else []
    if any(len(h.word) == 1 for h in d.two_handles):
        options.append("cancel")
    if wheel_sequence(d) is not None:
        options += ["rotate", "twist"]
    if any(not h.word and h.framing in (1, -1) for h in d.two_handles):
        options.append("blow_down")
    if len(d.handle_ids) <= 16:
        options.append("blow_up")
    return options


def _slide_congruence_holds(d, out, h1, h2, sign) -> bool:
    """The slide of h1 over h2 is the congruence E^T L E of the full linking
    matrix, with E the identity plus ``sign`` at (h2, h1)."""
    before, order = full_linking_matrix(d)
    after, order_after = full_linking_matrix(out)
    size = len(order)
    rows = [[1 if r == c else 0 for c in range(size)] for r in range(size)]
    rows[order.index(h1)][order.index(h2)] = sign  # the rows of E^T
    return order == order_after and congruence(before, IntMatrix.from_rows(rows)) == after


def _run_move_audit(k):
    """Walk k: AUDIT_MOVES random moves from the (k mod 6)-th start datum,
    each checked against the invariants the move must preserve."""
    rng = random.Random(k)
    start, build = _AUDIT_STARTS[k % len(_AUDIT_STARTS)]
    cid = f"walk {k:02d} from {start}"
    d = build()
    profile, boundary = homology(d), boundary_h1(d).invariant_factors
    refused = 0
    audited = 0
    while audited < AUDIT_MOVES:
        kind = rng.choice(_audit_options(d))
        if kind == "slide":
            h1, h2 = rng.sample(list(d.handle_ids), 2)
            sign = rng.choice((1, -1))
            out = slide_2_over_2(d, h1, h2, sign)
            if not _slide_congruence_holds(d, out, h1, h2, sign):
                return CaseResult(cid, False, f"move {audited}: slide congruence failed")
        elif kind == "cancel":
            g, h = next((h.word.letters[0][0], h.id)
                        for h in d.two_handles if len(h.word) == 1)
            out = apply_move(d, "cancel_1_2", {"g": g, "h": h})
        elif kind == "rotate":
            out = apply_move(d, "rotate", {"i": rng.randrange(len(wheel_sequence(d)))})
        elif kind == "twist":
            try:
                out = apply_move(d, "twist_wheel", {"i": rng.randrange(len(wheel_sequence(d)))})
            except CorkCalcError:
                refused += 1
                continue
        elif kind == "blow_up":
            out = apply_move(d, "blow_up", {"id": f"bu{audited}",
                                            "sign": rng.choice((1, -1))})
        else:
            target = next(h.id for h in d.two_handles
                          if not h.word and h.framing in (1, -1))
            out = blow_down(d, target)
        out_profile, out_boundary = homology(out), boundary_h1(out).invariant_factors
        if kind == "blow_up":
            profile_ok = out_profile.b2 == profile.b2 + 1
        elif kind == "blow_down":
            profile_ok = out_profile.b2 == profile.b2 - 1
        else:
            profile_ok = out_profile == profile
        problems = []
        if not profile_ok:
            problems.append(f"homology {profile} -> {out_profile}")
        if out_boundary != boundary:
            problems.append("boundary invariants changed")
        report = validate(out)
        if not report.ok:
            problems.append(f"invalid result: {report}")
        if problems:
            return CaseResult(cid, False, f"move {audited} ({kind}): " + "; ".join(problems))
        d, profile, boundary = out, out_profile, out_boundary
        audited += 1
    return CaseResult(cid, True, f"{audited} moves audited, {refused} twists refused")


# --- registry ----------------------------------------------------------------------------

_SUITES = {
    "lemma-2-2": (_cases_contractibility, _run_contractibility),
    "cork-order": (_cases_cork_order, _run_cork_order),
    "prop-2-6": (_cases_family_equality, _run_family_equality),
    "lemma-3-4-scripts": (_cases_deletion, _run_deletion),
    "w-family": (_cases_w_family, _run_w_family),
    "stein-framings": (_cases_stein, _run_stein),
    "thm-1-7-arith": (_cases_surface_sum, _run_surface_sum),
    "move-audit": (_cases_move_audit, _run_move_audit),
}

ALIASES = {
    "contractibility": "lemma-2-2",
    "family-equality": "prop-2-6",
    "deletion-scripts": "lemma-3-4-scripts",
    "surface-sum-arith": "thm-1-7-arith",
}

SUITE_NAMES = tuple(_SUITES)


def resolve_suite(name: str) -> str:
    resolved = ALIASES.get(name, name)
    if resolved not in _SUITES:
        raise KeyError(f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}")
    return resolved


# the grid keys and the least value of each; every grid value is an int
GRID_MINIMUM = {"n_max": 1, "m_max": 1, "budget": 0, "l": 1, "n": 1}


def iter_cases(name: str, grid: dict) -> list:
    """The cases of a grid; a key the suite does not read, or a value that
    is not an int of at least the key's minimum, raises ``CorkCalcError``
    unless the value is None."""
    resolved = resolve_suite(name)
    builder, _ = _SUITES[resolved]
    given = {k: v for k, v in grid.items() if v is not None}
    reads = inspect.signature(builder).parameters
    unread = [k for k in sorted(given) if k not in reads]
    if unread:
        raise CorkCalcError(f"suite {resolved} does not read {', '.join(unread)}; "
                            f"its grid keys: {', '.join(reads) or 'none'}")
    for key in sorted(given):
        value, least = given[key], GRID_MINIMUM[key]
        if not isinstance(value, int) or isinstance(value, bool) or value < least:
            raise CorkCalcError(f"grid key {key} must be an integer of at least "
                                f"{least}, got {value!r}")
    return builder(**given)


def run_case(name: str, case) -> CaseResult:
    _, runner = _SUITES[resolve_suite(name)]
    return runner(case)


def run_suite(name: str, grid: dict | None = None, jobs: int = 1) -> SuiteResult:
    resolved = resolve_suite(name)
    grid = grid or {}
    cases = iter_cases(resolved, grid)
    _CONTRACTIBLE.clear()
    if jobs > 1:
        # one strided batch per worker: neighbouring cases cost about the same
        from concurrent.futures import ProcessPoolExecutor
        batches = [(resolved, cases[k::jobs]) for k in range(jobs)]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = [r for batch in pool.map(_run_batch, batches) for r in batch]
    else:
        results = [run_case(resolved, c) for c in cases]
    results.sort(key=lambda r: r.case)
    return SuiteResult(resolved, tuple(results))


def _run_batch(item):
    name, cases = item
    return [run_case(name, c) for c in cases]
