"""Legendrian front bookkeeping and the framing criterion.

A front is an event list read left to right: left cusps insert an adjacent
strand pair, right cusps close one, crossings swap adjacent strands and
carry their sign as data (the transcriber resolves slopes and orientations
once, when drawing).  Strand tracing recovers the closed components, so
the classical counts are available exactly:

    tb  = writhe - number of right cusps
    rot = (down cusps - up cusps) / 2
    lk  = half the signed count of mixed crossings

A datum passes the framing criterion when every 2-handle has framing
tb - 1 for its front component and the front's pairwise linking numbers
reproduce the datum's 2-handle linkings.

Negative full-twist boxes expand to fixed event templates: a twist on
antiparallel strands of one component costs two positive crossings plus a
balanced pair of zigzags, which leaves tb unchanged, so the box multiplicity
never disturbs the criterion.  The template lives in ``TWIST_BLOCK``;
the wheel families' fronts are generated from it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .datum import KirbyDatum
from .errors import CorkCalcError, CorrespondenceIncompleteError, FrontFormatError
from .families import c_sequence
from .sequences import pair_ids

LCUSP = "lcusp"
RCUSP = "rcusp"
XPOS = "xpos"
XNEG = "xneg"
UP = "up"
DOWN = "down"

_EVENT_KINDS = (LCUSP, RCUSP, XPOS, XNEG)


@dataclass(frozen=True)
class FrontEvent:
    kind: str
    level: int
    component: str | None = None
    mark: str | None = None

    def __post_init__(self):
        if self.kind not in _EVENT_KINDS:
            raise FrontFormatError(f"unknown event kind {self.kind!r}")
        if self.level < 0:
            raise FrontFormatError("event level must be non-negative")
        if self.kind in (LCUSP, RCUSP):
            if not self.component:
                raise FrontFormatError("cusps must declare their component")
            if self.mark not in (UP, DOWN):
                raise FrontFormatError("cusps must carry an up/down mark")
        else:
            if self.component is not None or self.mark is not None:
                raise FrontFormatError("crossings carry no component or mark")


class _UnionFind:
    def __init__(self):
        self.parent: dict[int, int] = {}

    def make(self, x):
        self.parent[x] = x

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


@dataclass(frozen=True)
class FrontGeometry:
    components: tuple[str, ...]
    self_signs: dict
    mixed_signs: dict
    cusp_sides: dict
    cusp_marks: dict


@dataclass(frozen=True)
class LegendrianFront:
    events: tuple[FrontEvent, ...]

    def __post_init__(self):
        object.__setattr__(self, "_geometry", _trace(self.events))

    @property
    def geometry(self) -> FrontGeometry:
        return self._geometry

    @property
    def components(self) -> tuple[str, ...]:
        return self.geometry.components


def _trace(events: tuple[FrontEvent, ...]) -> FrontGeometry:
    uf = _UnionFind()
    active: list[int] = []
    fresh = iter(range(10 ** 9))
    declared: list[tuple[int, str]] = []
    crossings: list[tuple[int, int, int]] = []
    cusps: list[tuple[int, str, str]] = []  # (segment, side, mark)

    for idx, ev in enumerate(events):
        k = len(active)
        if ev.kind == LCUSP:
            if not 0 <= ev.level <= k:
                raise FrontFormatError(f"event {idx}: left cusp level {ev.level} "
                                       f"out of range for {k} strands")
            s1, s2 = next(fresh), next(fresh)
            uf.make(s1)
            uf.make(s2)
            uf.union(s1, s2)
            active[ev.level:ev.level] = [s1, s2]
            declared.append((s1, ev.component))
            cusps.append((s1, "left", ev.mark))
        elif ev.kind == RCUSP:
            if not 0 <= ev.level <= k - 2:
                raise FrontFormatError(f"event {idx}: right cusp level {ev.level} "
                                       f"out of range for {k} strands")
            s1, s2 = active[ev.level], active[ev.level + 1]
            uf.union(s1, s2)
            del active[ev.level:ev.level + 2]
            declared.append((s1, ev.component))
            cusps.append((s1, "right", ev.mark))
        else:
            if not 0 <= ev.level <= k - 2:
                raise FrontFormatError(f"event {idx}: crossing level {ev.level} "
                                       f"out of range for {k} strands")
            s1, s2 = active[ev.level], active[ev.level + 1]
            active[ev.level], active[ev.level + 1] = s2, s1
            crossings.append((s1, s2, 1 if ev.kind == XPOS else -1))

    if active:
        raise FrontFormatError(f"front does not close: {len(active)} strands left open")

    comp_of_class: dict[int, str] = {}
    for seg, comp in declared:
        root = uf.find(seg)
        if comp_of_class.setdefault(root, comp) != comp:
            raise FrontFormatError(
                f"conflicting component declarations on one curve: "
                f"{comp_of_class[root]} vs {comp}")
    names = sorted(comp_of_class.values())
    if len(set(names)) != len(names):
        raise FrontFormatError("component id reused across distinct closed curves")

    self_signs: dict[str, list[int]] = {c: [] for c in names}
    mixed_signs: dict[frozenset, list[int]] = {}
    for s1, s2, sign in crossings:
        c1, c2 = comp_of_class[uf.find(s1)], comp_of_class[uf.find(s2)]
        if c1 == c2:
            self_signs[c1].append(sign)
        else:
            mixed_signs.setdefault(frozenset((c1, c2)), []).append(sign)
    for pair, signs in mixed_signs.items():
        if len(signs) % 2:
            raise FrontFormatError(
                f"odd number of crossings between {sorted(pair)}: not a closed diagram")

    cusp_sides: dict[str, dict[str, int]] = {c: {"left": 0, "right": 0} for c in names}
    cusp_marks: dict[str, dict[str, int]] = {c: {UP: 0, DOWN: 0} for c in names}
    for seg, side, mark in cusps:
        c = comp_of_class[uf.find(seg)]
        cusp_sides[c][side] += 1
        cusp_marks[c][mark] += 1
    for c in names:
        if cusp_sides[c]["left"] != cusp_sides[c]["right"]:
            raise FrontFormatError(f"component {c}: left/right cusp counts differ")

    return FrontGeometry(tuple(names), self_signs, mixed_signs, cusp_sides, cusp_marks)


def _component(front: LegendrianFront, c: str):
    if c not in front.geometry.components:
        raise FrontFormatError(f"no component named {c}")


def writhe(front: LegendrianFront, c: str) -> int:
    """Signed count of self-crossings of the component."""
    _component(front, c)
    return sum(front.geometry.self_signs[c])


def tb(front: LegendrianFront, c: str) -> int:
    """Thurston-Bennequin number: writhe minus right cusps."""
    _component(front, c)
    return writhe(front, c) - front.geometry.cusp_sides[c]["right"]


def rot(front: LegendrianFront, c: str) -> int:
    """Rotation number: half the signed cusp imbalance, down cusps minus up
    cusps.  The halving is exact: ``_trace`` refuses a component whose left
    and right cusp counts differ, so the component has an even number of
    cusps, each marked up or down, and down - up = (down + up) - 2 up is
    even."""
    _component(front, c)
    marks = front.geometry.cusp_marks[c]
    return (marks[DOWN] - marks[UP]) // 2


def linking_number(front: LegendrianFront, c1: str, c2: str) -> int:
    """Half the signed count of crossings between two components."""
    _component(front, c1)
    _component(front, c2)
    if c1 == c2:
        raise ValueError("linking number needs two distinct components")
    return sum(front.geometry.mixed_signs.get(frozenset((c1, c2)), [])) // 2


# --- framing criterion ----------------------------------------------------------

@dataclass(frozen=True)
class SteinRow:
    handle: str
    component: str
    framing: int
    tb: int
    ok: bool


@dataclass(frozen=True)
class SteinReport:
    rows: tuple[SteinRow, ...]
    linking_mismatches: tuple[str, ...]
    passed: bool

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "rows": [{"handle": r.handle, "component": r.component,
                      "framing": r.framing, "tb": r.tb, "ok": r.ok}
                     for r in self.rows],
            "linking_mismatches": list(self.linking_mismatches),
        }


def stein_check(d: KirbyDatum, front: LegendrianFront,
                correspondence: dict[str, str]) -> SteinReport:
    """Verdict per 2-handle: framing must be tb - 1, and front linking
    numbers must match the datum's 2-handle linkings.  Each handle needs
    its own front component."""
    missing = [h.id for h in d.two_handles if h.id not in correspondence]
    if missing:
        raise CorrespondenceIncompleteError(
            f"no front component assigned to handles {missing}")
    rows, owner = [], {}
    for h in d.two_handles:
        comp = correspondence[h.id]
        if owner.setdefault(comp, h.id) != h.id:
            raise CorkCalcError(f"handles {owner[comp]} and {h.id} both map to "
                                f"front component {comp}")
        value = tb(front, comp)
        rows.append(SteinRow(h.id, comp, h.framing, value, h.framing == value - 1))
    mismatches = []
    handles = list(d.two_handles)
    for i, h1 in enumerate(handles):
        for h2 in handles[i + 1:]:
            front_lk = linking_number(front, correspondence[h1.id], correspondence[h2.id])
            if front_lk != d.lk(h1.id, h2.id):
                mismatches.append(
                    f"lk({h1.id},{h2.id}) = {d.lk(h1.id, h2.id)} but front gives {front_lk}")
    passed = all(r.ok for r in rows) and not mismatches
    return SteinReport(tuple(rows), tuple(mismatches), passed)


# --- templates and generated fronts ----------------------------------------------

# The negative full twist on antiparallel strands of one component.  Entries
# are (kind, level offset, mark); zigzag cusps inherit the component.  Two
# positive crossings plus one down and one up zigzag on the lower strand, so
# tb is unchanged.
TWIST_BLOCK = (
    (XPOS, 0, None),
    (XPOS, 0, None),
    (LCUSP, 1, DOWN),
    (RCUSP, 0, DOWN),
    (LCUSP, 1, UP),
    (RCUSP, 0, UP),
)


def twist_box_events(component: str, level: int, twists: int) -> list[FrontEvent]:
    """Expand a -twists full-twist box on antiparallel strands."""
    out = []
    for _ in range(twists):
        for kind, offset, mark in TWIST_BLOCK:
            comp = component if kind in (LCUSP, RCUSP) else None
            out.append(FrontEvent(kind, level + offset, comp, mark))
    return out


def max_tb_reference_events(component: str) -> list[FrontEvent]:
    """The standard three-crossing, four-cusp front with tb = 1."""
    return [
        FrontEvent(LCUSP, 0, component, UP),
        FrontEvent(LCUSP, 1, component, DOWN),
        FrontEvent(XPOS, 1),
        FrontEvent(XPOS, 1),
        FrontEvent(XPOS, 1),
        FrontEvent(RCUSP, 0, component, UP),
        FrontEvent(RCUSP, 0, component, DOWN),
    ]


def framed_zero_component_events(component: str, m: int) -> list[FrontEvent]:
    """A tb = 1 component carrying the (-m+1)-twist box of the basic cork
    handle; the box contributes zero net tb, so every m passes framing 0."""
    trefoil = max_tb_reference_events(component)
    return trefoil[:-2] + twist_box_events(component, 1, m - 1) + trefoil[-2:]


def wheel_front_events(n: int, m: int) -> tuple[list[FrontEvent], dict[str, str]]:
    """Front for the order-n cork wheel: one tb = 1 component per 2-handle,
    drawn disjointly (the wheel's mutual knotting is linking-trivial).

    The front is a transcription fed to the framing check, not an existence
    proof; for n > 4 it extrapolates the pattern beyond the drawn wheel
    size 4.

    Returns (events, handle-to-component correspondence)."""
    events: list[FrontEvent] = []
    corr: dict[str, str] = {}
    handle_ids = [pair_ids(j, sym)[1] for j, sym in enumerate(c_sequence(n))]
    for idx, hid in enumerate(handle_ids):
        comp = f"k{idx}"
        corr[hid] = comp
        events.extend(framed_zero_component_events(comp, m))
    return events, corr


# --- file format -------------------------------------------------------------------

@dataclass(frozen=True)
class FrontDocument:
    front: LegendrianFront
    correspondence: tuple[tuple[str, str], ...] = ()

    @property
    def correspondence_dict(self) -> dict[str, str]:
        return dict(self.correspondence)


def front_to_text(doc: FrontDocument) -> str:
    lines = []
    for handle, comp in doc.correspondence:
        lines.append(f"map {handle} {comp}")
    for ev in doc.front.events:
        comp = ev.component or "-"
        mark = ev.mark or "-"
        lines.append(f"{ev.kind} {ev.level} {comp} {mark}")
    return "\n".join(lines) + "\n"


def front_from_text(text: str) -> FrontDocument:
    events = []
    corr = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if tokens[0] == "map":
            if len(tokens) != 3:
                raise FrontFormatError("map records need exactly 2 fields", line=lineno)
            if any(handle == tokens[1] for handle, _ in corr):
                raise FrontFormatError(f"handle {tokens[1]} is mapped twice", line=lineno)
            corr.append((tokens[1], tokens[2]))
            continue
        if len(tokens) != 4:
            raise FrontFormatError(
                f"event records need 4 fields, got {len(tokens)}", line=lineno)
        kind, level_s, comp, mark = tokens
        try:
            level = int(level_s)
        except ValueError:
            raise FrontFormatError(f"bad level {level_s!r}", line=lineno) from None
        try:
            events.append(FrontEvent(kind, level,
                                     None if comp == "-" else comp,
                                     None if mark == "-" else mark))
        except FrontFormatError as e:
            raise FrontFormatError(str(e), line=lineno) from None
    try:
        front = LegendrianFront(tuple(events))
    except FrontFormatError as e:
        if e.line is None:
            raise FrontFormatError(str(e)) from None
        raise
    return FrontDocument(front, tuple(corr))

