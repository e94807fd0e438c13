"""W(5,2) and the magic Veldkamp line: a hyperbolic quadric, an elliptic
quadric and a quadratic cone sharing a 15-point parabolic core isomorphic to
the doily.

The three off-core sectors model the doily's Veldkamp space: complementary
point pairs of the hyperbolic sector correspond to grids, complementary
pairs of the elliptic sector to ovoids, and the non-nucleus points of the
cone sector to perp-sets.  Everything is constructed from the standard forms
and certified by exhaustive checks; construction raises ConsistencyError if
any structural invariant fails.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from itertools import combinations
from types import MappingProxyType
from typing import Mapping, Optional

from .doily import (
    DUAD_INDEX,
    DUADS,
    DoilyHyperplane,
    GRID,
    OVOID,
    PERP_SET,
    S_ELEMENTS,
    S_SET,
    SYNTHEMES,
    build_doily,
    classify_hyperplane,
    duad_label,
)
from .gf2 import (
    QuadraticForm,
    SymplecticForm,
    elliptic_form,
    hyperbolic_form,
    projective_points,
    standard_symplectic,
)
from .incidence import (
    IncidenceStructure,
    collinear,
    deep_points_mask,
    find_isomorphism,
    induced_substructure,
    mask_of,
    perp,
    points_of,
    popcount,
    veldkamp_sum_mask,
)
from .veldkamp import VeldkampLine, classify_veldkamp_line, fits_family

CORE = "core"
HYPERBOLIC_SECTOR = "hyperbolic"
ELLIPTIC_SECTOR = "elliptic"
CONE_SECTOR = "cone"

NUCLEUS_LABEL = "123456"

# the kind of doily hyperplane an off point of each sector traces on the core
SECTOR_KIND = {HYPERBOLIC_SECTOR: GRID, ELLIPTIC_SECTOR: OVOID, CONE_SECTOR: PERP_SET}


class ConsistencyError(RuntimeError):
    """An internal invariant of the magic-line construction failed."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConsistencyError(message)


def subset_label(elems) -> str:
    return "".join(str(e) for e in sorted(elems))


def label_elements(label: str) -> frozenset[int]:
    """Elements of a subset label such as '146' or '3456'."""
    return frozenset(int(c) for c in label)


@dataclass(frozen=True, eq=False)
class SymplecticSpace:
    """PG(5,2) with the totally isotropic lines of the standard alternating form.

    Point index w has the coordinate mask ``points[w] == w + 1`` (x_k at
    bit k - 1); its label spells x1...x6 as 0s and 1s.
    """

    form: SymplecticForm
    points: tuple[int, ...]
    structure: IncidenceStructure

    def __repr__(self) -> str:
        return f"SymplecticSpace({len(self.points)} points, {len(self.structure.lines)} lines)"


@lru_cache(maxsize=None)
def build_w52() -> SymplecticSpace:
    """63 points; lines are the triples {x, y, x+y} with theta(x, y) = 0."""
    form = standard_symplectic(6)
    points = tuple(range(1, 1 << form.dim))
    lines = set()
    for x, y in combinations(points, 2):
        if form.evaluate(x, y) == 0:
            lines.add(frozenset((x - 1, y - 1, (x ^ y) - 1)))
    structure = IncidenceStructure.from_lines(
        len(points), lines, labels=[str(v) for v in projective_points(form.dim)])
    return SymplecticSpace(form, points, structure)


@dataclass(frozen=True, eq=False)
class Constituent:
    """One member of the magic line, with its induced line structure."""

    name: str
    w_points: tuple[int, ...]
    structure: IncidenceStructure

    @cached_property
    def w_set(self) -> frozenset[int]:
        return frozenset(self.w_points)

    @cached_property
    def _local(self) -> dict[int, int]:
        return {w: k for k, w in enumerate(self.w_points)}

    def local_index(self, w: int) -> int:
        return self._local[w]

    def __repr__(self) -> str:
        return (f"Constituent({self.name!r}, {len(self.w_points)} points, "
                f"{len(self.structure.lines)} lines)")


@dataclass(frozen=True, eq=False)
class SectorCorrespondence:
    """The hyperplane classes of the core doily matched with sector objects."""

    grid_pairs: Mapping[tuple[int, int, int], tuple[int, int]]
    ovoid_pairs: Mapping[int, tuple[int, int]]
    perp_points: Mapping[tuple[int, int], int]


@dataclass(frozen=True, eq=False)
class MagicLine:
    """The assembled triple (hyperbolic, elliptic, cone) with its labelling."""

    space: SymplecticSpace
    q_plus_form: QuadraticForm
    q_minus_form: QuadraticForm
    cone_form: QuadraticForm
    q_plus: Constituent
    q_minus: Constituent
    cone: Constituent
    core_w: tuple[int, ...]
    core_structure: IncidenceStructure
    core_duads: Mapping[int, tuple[int, int]]
    duad_to_w: Mapping[tuple[int, int], int]
    nucleus_w: int
    label_of: Mapping[int, str]
    w_of_label: Mapping[str, int]
    pairs: SectorCorrespondence

    @cached_property
    def core_set(self) -> frozenset[int]:
        return frozenset(self.core_w)

    @cached_property
    def constituents(self) -> Mapping[str, Constituent]:
        """Sector name -> constituent, in the order hyperbolic, elliptic, cone."""
        return MappingProxyType({c.name: c for c in (self.q_plus, self.q_minus, self.cone)})

    def sector_of(self, w: int) -> str:
        if not 0 <= w < len(self.space.points):
            raise IndexError(f"point index {w} out of range")
        if w in self.core_set:
            return CORE
        for sector, constituent in self.constituents.items():
            if w in constituent.w_set:
                return sector
        raise ConsistencyError(f"point {w} lies in no constituent")

    def constituent_of(self, w: int) -> Constituent:
        sector = self.sector_of(w)
        if sector == CORE:
            raise ValueError("core points belong to all three constituents")
        return self.constituents[sector]

    def __repr__(self) -> str:
        return "MagicLine(hyperbolic/elliptic/cone over W(5,2))"


def _constituent(space: SymplecticSpace, name: str, w_points) -> Constituent:
    structure, original = induced_substructure(space.structure, w_points)
    return Constituent(name, original, structure)


def _trace_hyperplane(constituent: Constituent, w: int,
                      core_duads: Mapping[int, tuple[int, int]]) -> DoilyHyperplane:
    """Core points cut out by the constituent's lines through an off point,
    which must be a hyperplane of the constituent's SECTOR_KIND.  Failures
    name the point by its label in the constituent (its coordinates while the
    magic line is being built) and its W(5,2) index."""
    local = constituent.local_index(w)
    struct = constituent.structure
    point = f"{constituent.name} point {struct.label_of(local)} (W(5,2) index {w})"
    mask = 0
    for idx in struct.lines_through[local]:
        core = [v for q in struct.lines[idx] if (v := constituent.w_points[q]) in core_duads]
        _require(len(core) == 1,
                 f"{point}: a line through it must meet the core exactly once, got {len(core)}")
        bit = 1 << DUAD_INDEX[core_duads[core[0]]]
        _require(not mask & bit, f"{point}: its trace points must be distinct")
        mask |= bit
    try:
        h = classify_hyperplane(mask)
    except ValueError as err:
        raise ConsistencyError(f"{point}: its trace is not a hyperplane of the doily") from err
    kind = SECTOR_KIND[constituent.name]
    _require(h.kind == kind, f"{point}: its trace must be of kind {kind}, got {h.kind}")
    return h


def _split_line(constituent: Constituent, line: frozenset[int],
                core_duads: Mapping[int, tuple[int, int]]):
    w_members = [constituent.w_points[q] for q in line]
    core = [w for w in w_members if w in core_duads]
    off = [w for w in w_members if w not in core_duads]
    return core, off


def _hyperbolic_labels(space: SymplecticSpace, qp: Constituent,
                       core_duads: Mapping[int, tuple[int, int]]):
    """Label the 20 off points by 3-subsets of S.

    The labels of a complementary pair are forced only up to swapping the
    pair's two members globally, so one seed is fixed (the lexicographically
    smallest coordinate label gets its trace grid's 1-containing triple) and
    every other label is propagated through the lines: on a line {X, Y, d}
    joining two off points and a duad, d = (X n Y) u (S \\ (X u Y)).
    """
    off = [w for w in qp.w_points if w not in core_duads]
    _require(len(off) == 20, f"hyperbolic sector must have 20 points, got {len(off)}")
    traces = {w: _trace_hyperplane(qp, w, core_duads) for w in off}
    groups: dict[tuple[int, int, int], list[int]] = {}
    for w, h in traces.items():
        groups.setdefault(h.index, []).append(w)
    _require(len(groups) == 10 and all(len(g) == 2 for g in groups.values()),
             "hyperbolic points must pair up onto the 10 grids")

    seed = min(off, key=space.structure.label_of)
    labels: dict[int, frozenset[int]] = {seed: frozenset(traces[seed].index)}
    queue = [seed]
    while queue:
        w = queue.pop(0)
        current = labels[w]
        local = qp.local_index(w)
        for idx in qp.structure.lines_through[local]:
            core, line_off = _split_line(qp, qp.structure.lines[idx], core_duads)
            _require(len(core) == 1 and len(line_off) == 2,
                     "hyperbolic off-line must carry one duad and two off points")
            duad = set(core_duads[core[0]])
            other = line_off[0] if line_off[1] == w else line_off[1]
            t = frozenset(traces[other].index)
            valid = [y for y in (t, S_SET - t)
                     if (current & y) | (S_SET - (current | y)) == duad]
            _require(len(valid) == 1, "off-line duad must determine the neighbour label")
            if other in labels:
                _require(labels[other] == valid[0], "inconsistent propagated label")
            else:
                labels[other] = valid[0]
                queue.append(other)
    _require(len(labels) == 20, "label propagation must reach every hyperbolic point")

    grid_pairs: dict[tuple[int, int, int], tuple[int, int]] = {}
    for t, (w1, w2) in groups.items():
        _require(labels[w1] == S_SET - labels[w2],
                 "pair labels must be complementary 3-subsets")
        canonical = frozenset(t)
        first, second = (w1, w2) if labels[w1] == canonical else (w2, w1)
        _require(labels[first] == canonical, "one pair member must carry the canonical triple")
        grid_pairs[t] = (first, second)
    return {w: subset_label(l) for w, l in labels.items()}, grid_pairs


def _elliptic_labels(space: SymplecticSpace, qm: Constituent,
                     core_duads: Mapping[int, tuple[int, int]]):
    """Label the 12 off points as 1..6 and 1'..6'.

    Off-collinearity is bipartite with the six unprimed points pairwise
    non-collinear; the class containing the lexicographically smallest
    coordinate label is taken unprimed, which fixes the one free choice.
    """
    off = [w for w in qm.w_points if w not in core_duads]
    _require(len(off) == 12, f"elliptic sector must have 12 points, got {len(off)}")
    traces = {w: _trace_hyperplane(qm, w, core_duads) for w in off}
    groups: dict[int, list[int]] = {}
    for w, h in traces.items():
        groups.setdefault(h.index[0], []).append(w)
    _require(len(groups) == 6 and all(len(g) == 2 for g in groups.values()),
             "elliptic points must pair up onto the 6 ovoids")

    adjacency: dict[int, set[int]] = {w: set() for w in off}
    for line in qm.structure.lines:
        core, line_off = _split_line(qm, line, core_duads)
        if len(line_off) == 0:
            continue
        _require(len(core) == 1 and len(line_off) == 2,
                 "elliptic off-line must carry one duad and two off points")
        a, b = line_off
        adjacency[a].add(b)
        adjacency[b].add(a)

    start = min(off, key=space.structure.label_of)
    color = {start: 0}
    queue = [start]
    while queue:
        w = queue.pop(0)
        for v in adjacency[w]:
            if v in color:
                _require(color[v] != color[w], "elliptic off-collinearity must be bipartite")
            else:
                color[v] = 1 - color[w]
                queue.append(v)
    _require(len(color) == 12, "elliptic off-collinearity graph must be connected")
    _require(sum(1 for w in off if color[w] == 0) == 6, "bipartition classes must have size 6")

    labels = {}
    ovoid_pairs: dict[int, tuple[int, int]] = {}
    for i, (w1, w2) in groups.items():
        _require(color[w1] != color[w2], "an ovoid pair must straddle the bipartition")
        _require(w2 not in adjacency[w1], "complementary elliptic points must be non-collinear")
        unprimed, primed = (w1, w2) if color[w1] == 0 else (w2, w1)
        labels[unprimed] = f"{i}"
        labels[primed] = f"{i}'"
        ovoid_pairs[i] = (unprimed, primed)

    # every off-line must have the shape {i, j', ij}
    for line in qm.structure.lines:
        core, line_off = _split_line(qm, line, core_duads)
        if not line_off:
            continue
        a, b = line_off
        i = traces[a].index[0]
        j = traces[b].index[0]
        _require(i != j and set(core_duads[core[0]]) == {i, j},
                 "elliptic line must join i, j' and the duad ij")
    return labels, ovoid_pairs


def _cone_labels(space: SymplecticSpace, cone: Constituent,
                 core_duads: Mapping[int, tuple[int, int]], nucleus_w: int):
    """Label the nucleus 123456 and each remaining off point by the 4-subset
    complementary to the deep duad of its perp-set trace."""
    off = [w for w in cone.w_points if w not in core_duads and w != nucleus_w]
    _require(len(off) == 15, f"cone sector must have 15 non-nucleus points, got {len(off)}")
    labels = {nucleus_w: NUCLEUS_LABEL}
    perp_points: dict[tuple[int, int], int] = {}
    for w in off:
        duad = _trace_hyperplane(cone, w, core_duads).index
        _require(duad not in perp_points, "cone points must hit distinct perp-sets")
        perp_points[duad] = w
        labels[w] = subset_label(S_SET - set(duad))

    # vertex lines {123456, klmn, ij} with {i,j} complementary to klmn
    local = cone.local_index(nucleus_w)
    seen_duads = set()
    for idx in cone.structure.lines_through[local]:
        core, line_off = _split_line(cone, cone.structure.lines[idx], core_duads)
        _require(len(core) == 1 and len(line_off) == 2,
                 "vertex line must join the nucleus, an off point and a duad")
        other = line_off[0] if line_off[1] == nucleus_w else line_off[1]
        duad = core_duads[core[0]]
        _require(set(duad) == S_SET - label_elements(labels[other]),
                 "vertex line duad must complement the off point's 4-subset")
        seen_duads.add(duad)
    _require(len(seen_duads) == 15, "vertex lines must reach every duad of the core")
    return labels, perp_points


@lru_cache(maxsize=None)
def build_magic_line() -> MagicLine:
    """Construct and certify the magic Veldkamp line over W(5,2).

    The hyperbolic form is x1x2 + x3x4 + x5x6 and the elliptic form adds the
    irreducible x1^2 + x1x2 + x2^2 on the first two coordinates; both
    polarize to the standard alternating form, and their Veldkamp sum is the
    cone.  Every structural invariant is verified, not assumed.
    """
    space = build_w52()
    q_plus_form = hyperbolic_form(6)
    q_minus_form = elliptic_form(6)
    cone_form = q_plus_form + q_minus_form

    n = len(space.points)
    full = space.structure.full_mask
    # point index w has the coordinate mask w + 1
    qp_mask = mask_of(w for w in range(n) if q_plus_form.evaluate(w + 1) == 0)
    qm_mask = mask_of(w for w in range(n) if q_minus_form.evaluate(w + 1) == 0)
    _require(popcount(qp_mask) == 35, "hyperbolic quadric must have 35 points")
    _require(popcount(qm_mask) == 27, "elliptic quadric must have 27 points")

    cone_mask = veldkamp_sum_mask(full, qp_mask, qm_mask)
    _require(popcount(cone_mask) == 31, "cone must have 31 points")
    zero_mask = mask_of(w for w in range(n) if cone_form.evaluate(w + 1) == 0)
    _require(zero_mask == cone_mask, "cone must be the zero set of the summed form")

    core_mask = qp_mask & qm_mask
    _require(popcount(core_mask) == 15, "core must have 15 points")
    _require(qp_mask & cone_mask == core_mask and qm_mask & cone_mask == core_mask,
             "pairwise intersections of the constituents must equal the core")

    cone_points = points_of(cone_mask)
    # the cone's span: its point set together with 0 is closed under addition
    for i, j in combinations(cone_points, 2):
        _require(cone_mask >> (((i + 1) ^ (j + 1)) - 1) & 1,
                 "cone point set must be a linear hyperplane")
    nucleus_candidates = [
        i for i in cone_points
        if all(space.form.evaluate(i + 1, j + 1) == 0 for j in cone_points)]
    _require(len(nucleus_candidates) == 1,
             "radical of the form restricted to the cone span must be one point")
    nucleus_w = nucleus_candidates[0]
    _require((core_mask >> nucleus_w) & 1 == 0, "nucleus must lie off the core")
    _require(deep_points_mask(space.structure, cone_mask) == 1 << nucleus_w,
             "nucleus must be the unique deep point of the cone hyperplane")

    qp = _constituent(space, HYPERBOLIC_SECTOR, points_of(qp_mask))
    qm = _constituent(space, ELLIPTIC_SECTOR, points_of(qm_mask))
    cone = _constituent(space, CONE_SECTOR, cone_points)

    core_structure, core_w = induced_substructure(space.structure, points_of(core_mask))
    _require(len(core_structure.lines) == 15, "core must carry 15 induced lines")
    iso = find_isomorphism(core_structure, build_doily())
    _require(iso is not None, "core must be isomorphic to the duad-syntheme doily")
    core_duads = {core_w[local]: DUADS[image] for local, image in iso.items()}
    duad_to_w = {d: w for w, d in core_duads.items()}

    label_of: dict[int, str] = {w: duad_label(d) for w, d in core_duads.items()}
    hyp_labels, grid_pairs = _hyperbolic_labels(space, qp, core_duads)
    ell_labels, ovoid_pairs = _elliptic_labels(space, qm, core_duads)
    cone_labels, perp_points = _cone_labels(space, cone, core_duads, nucleus_w)
    label_of.update(hyp_labels)
    label_of.update(ell_labels)
    label_of.update(cone_labels)
    _require(len(label_of) == n, "every point of W(5,2) must receive a label")
    _require(len(set(label_of.values())) == n, "labels must be pairwise distinct")
    w_of_label = {lab: w for w, lab in label_of.items()}

    def labelled(structure: IncidenceStructure, w_points) -> IncidenceStructure:
        return replace(structure, labels=tuple(label_of[w] for w in w_points))

    return MagicLine(
        space=space,
        q_plus_form=q_plus_form,
        q_minus_form=q_minus_form,
        cone_form=cone_form,
        q_plus=replace(qp, structure=labelled(qp.structure, qp.w_points)),
        q_minus=replace(qm, structure=labelled(qm.structure, qm.w_points)),
        cone=replace(cone, structure=labelled(cone.structure, cone.w_points)),
        core_w=core_w,
        core_structure=labelled(core_structure, core_w),
        core_duads=MappingProxyType(dict(core_duads)),
        duad_to_w=MappingProxyType(dict(duad_to_w)),
        nucleus_w=nucleus_w,
        label_of=MappingProxyType(dict(label_of)),
        w_of_label=MappingProxyType(dict(w_of_label)),
        pairs=SectorCorrespondence(
            grid_pairs=MappingProxyType(dict(grid_pairs)),
            ovoid_pairs=MappingProxyType(dict(ovoid_pairs)),
            perp_points=MappingProxyType(dict(perp_points)),
        ),
    )


def assign_labels(ml: MagicLine) -> dict[int, str]:
    """The certified bijection from W(5,2) point indices to sector labels."""
    return dict(ml.label_of)


def doily_trace(ml: MagicLine, w: int) -> Optional[DoilyHyperplane]:
    """The core hyperplane cut out by the constituent lines through an off point.

    Grids for hyperbolic points, ovoids for elliptic points, perp-sets for
    non-nucleus cone points.  The nucleus traces the whole core through its
    15 vertex lines, which is not a proper hyperplane: returns None for it.
    """
    sector = ml.sector_of(w)
    if sector == CORE:
        raise ValueError(f"point {w} lies on the core doily and has no trace")
    if w == ml.nucleus_w:
        return None
    return _trace_hyperplane(ml.constituent_of(w), w, ml.core_duads)


def complementary_point(ml: MagicLine, w: int) -> Optional[int]:
    """The unique other off point of the same sector with the same trace.

    Cone-sector points (nucleus included) have no complementary partner and
    yield None.
    """
    sector = ml.sector_of(w)
    if sector == CORE:
        raise ValueError(f"point {w} lies on the core doily")
    if sector == CONE_SECTOR:
        return None
    pairs = ml.pairs.grid_pairs if sector == HYPERBOLIC_SECTOR else ml.pairs.ovoid_pairs
    for w1, w2 in pairs.values():
        if w == w1:
            return w2
        if w == w2:
            return w1
    raise ConsistencyError(f"point {w} belongs to no complementary pair")


@dataclass(frozen=True)
class SectorImage:
    """A hyperplane's counterpart among the off points: a pair or a point."""

    sector: str
    labels: tuple[str, ...]

    def __str__(self) -> str:
        return "/".join(self.labels)


@dataclass(frozen=True)
class LineImage:
    """Sector images of a Veldkamp line's three members, in member order."""

    family: str
    members: tuple[SectorImage, SectorImage, SectorImage]

    def __str__(self) -> str:
        return "{" + ", ".join(str(m) for m in self.members) + "}"


def sector_image(ml: MagicLine, h: DoilyHyperplane) -> SectorImage:
    """Map one doily hyperplane to its sector object."""
    if h.kind == OVOID:
        unprimed, primed = ml.pairs.ovoid_pairs[h.index[0]]
        return SectorImage(ELLIPTIC_SECTOR,
                           (ml.label_of[unprimed], ml.label_of[primed]))
    if h.kind == GRID:
        first, second = ml.pairs.grid_pairs[h.index]
        return SectorImage(HYPERBOLIC_SECTOR,
                           (ml.label_of[first], ml.label_of[second]))
    w = ml.pairs.perp_points[h.index]
    return SectorImage(CONE_SECTOR, (ml.label_of[w],))


def veldkamp_line_image(ml: MagicLine, line: VeldkampLine) -> LineImage:
    """Replace each member of a doily Veldkamp line by its sector object."""
    family = classify_veldkamp_line(line)
    members = tuple(sector_image(ml, classify_hyperplane(m)) for m in line.members)
    return LineImage(family, members)


def image_matches_family(image: LineImage) -> bool:
    """Check the label arithmetic of a line image against its family pattern.

    Labels are read as the subsets of S their members stand for (i/i' as
    {i}, klmn as S \\ klmn, ijk/lmn as both triples) and checked by the
    same rule table that classifies doily lines:

    perp-grid-grid        -> {klmn, ikl/jmn, jkl/imn}
    perp triple disjoint  -> {klmn, ijmn, ijkl}
    perp triple triangle  -> {klmn, jlmn, ilmn}
    ovoid-perp-grid       -> {i/i', ilmn, ijk/lmn}
    ovoid-ovoid-perp      -> {i/i', j/j', klmn}
    """
    by_kind = {OVOID: [], PERP_SET: [], GRID: []}
    for m in image.members:
        if m.sector == ELLIPTIC_SECTOR:
            by_kind[OVOID].append(frozenset((int(m.labels[0]),)))
        elif m.sector == CONE_SECTOR:
            by_kind[PERP_SET].append(S_SET - label_elements(m.labels[0]))
        elif m.sector == HYPERBOLIC_SECTOR:
            by_kind[GRID].append(tuple(label_elements(lab) for lab in m.labels))
    return fits_family(image.family, by_kind[OVOID], by_kind[PERP_SET], by_kind[GRID])


@dataclass(frozen=True)
class PolarPairReport:
    """Outcome of the mutual-perp inspection for one complementary pair."""

    sector: str
    pair_labels: tuple[str, str]
    pair_collinear: bool
    mutual_perp_labels: tuple[str, ...]
    trace_name: str
    matches_trace: bool
    induced_line_count: int
    every_point_on_induced_line: bool
    has_universal_point: bool
    pairwise_non_collinear: bool

    @property
    def is_rank_two_polar_space(self) -> bool:
        """Non-degenerate of rank >= 2: lines everywhere, no universal point."""
        return (not self.pair_collinear and self.matches_trace
                and self.induced_line_count > 0 and self.every_point_on_induced_line
                and not self.has_universal_point)

    @property
    def is_rank_one_polar_space(self) -> bool:
        """Rank one: a coclique, no induced lines at all."""
        return (not self.pair_collinear and self.matches_trace
                and self.induced_line_count == 0 and self.pairwise_non_collinear)


def polar_pair_check(ml: MagicLine, p: int, q: int) -> PolarPairReport:
    """Inspect the mutual perp of a complementary pair inside its constituent."""
    if p == q:
        raise ValueError("a polar-pair check needs two distinct points")
    sector = ml.sector_of(p)
    if sector not in (HYPERBOLIC_SECTOR, ELLIPTIC_SECTOR):
        raise ValueError(f"polar-pair checks apply to hyperbolic and elliptic pairs, got {sector}")
    if complementary_point(ml, p) != q:
        raise ValueError(f"points {p} and {q} are not a complementary pair")

    constituent = ml.constituent_of(p)
    struct = constituent.structure
    lp, lq = constituent.local_index(p), constituent.local_index(q)
    pair_collinear = collinear(struct, lp, lq)
    mutual = sorted(perp(struct, lp) & perp(struct, lq))
    mutual_w = {constituent.w_points[x] for x in mutual}

    trace = doily_trace(ml, p)
    trace_w = {ml.duad_to_w[d] for d in trace.duads}
    mutual_mask = mask_of(mutual)
    inside = [lm for lm in struct.line_masks if lm & ~mutual_mask == 0]
    every_on_line = all(any((lm >> x) & 1 for lm in inside) for x in mutual)
    universal = any(all(y == x or collinear(struct, x, y) for y in mutual) for x in mutual)
    non_collinear = all(not collinear(struct, x, y) for x, y in combinations(mutual, 2))

    return PolarPairReport(
        sector=sector,
        pair_labels=(ml.label_of[p], ml.label_of[q]),
        pair_collinear=pair_collinear,
        mutual_perp_labels=tuple(ml.label_of[constituent.w_points[x]] for x in mutual),
        trace_name=trace.name,
        matches_trace=mutual_w == trace_w,
        induced_line_count=len(inside),
        every_point_on_induced_line=every_on_line,
        has_universal_point=universal,
        pairwise_non_collinear=non_collinear,
    )


@dataclass(frozen=True, eq=False)
class SectorModels:
    """Coordinate-free models of the three constituents, built from labels."""

    hyperbolic: IncidenceStructure
    elliptic: IncidenceStructure
    cone: IncidenceStructure


def build_sector_models(ml: Optional[MagicLine] = None) -> SectorModels:
    """Assemble the combinatorial models around the duad-syntheme doily.

    Hyperbolic: 15 duads + 20 triples, synthemes plus the 90 lines
    {abc, aij, ak}.  Elliptic: duads + 1..6 and 1'..6', synthemes plus the 30
    lines {i, j', ij}.  Cone: duads + 15 4-subsets + the nucleus label,
    synthemes plus the 15 vertex lines {123456, klmn, ij} plus the remaining
    induced lines imported from the coordinate cone through the labelling.
    """
    if ml is None:
        ml = build_magic_line()
    duad_labels = [duad_label(d) for d in DUADS]
    syntheme_labels = [frozenset(duad_label(d) for d in syn) for syn in SYNTHEMES]

    # hyperbolic model
    triple_labels = [subset_label(t) for t in combinations(S_ELEMENTS, 3)]
    hyp_labels = duad_labels + triple_labels
    hyp_index = {lab: k for k, lab in enumerate(hyp_labels)}
    hyp_lines = {frozenset(hyp_index[lab] for lab in syn) for syn in syntheme_labels}
    for t in combinations(S_ELEMENTS, 3):
        rest = S_SET - set(t)
        for x in t:
            for u, v in combinations(sorted(rest), 2):
                (k,) = rest - {u, v}
                hyp_lines.add(frozenset((
                    hyp_index[subset_label(t)],
                    hyp_index[subset_label((x, u, v))],
                    hyp_index[duad_label(tuple(sorted((x, k))))],
                )))
    hyperbolic = IncidenceStructure.from_lines(len(hyp_labels), hyp_lines, hyp_labels)

    # elliptic model
    ell_labels = duad_labels + [f"{i}" for i in S_ELEMENTS] + [f"{i}'" for i in S_ELEMENTS]
    ell_index = {lab: k for k, lab in enumerate(ell_labels)}
    ell_lines = {frozenset(ell_index[lab] for lab in syn) for syn in syntheme_labels}
    for i in S_ELEMENTS:
        for j in S_ELEMENTS:
            if i != j:
                ell_lines.add(frozenset((
                    ell_index[f"{i}"],
                    ell_index[f"{j}'"],
                    ell_index[duad_label(tuple(sorted((i, j))))],
                )))
    elliptic = IncidenceStructure.from_lines(len(ell_labels), ell_lines, ell_labels)

    # cone model
    quad_labels = sorted(subset_label(S_SET - set(d)) for d in DUADS)
    cone_labels = duad_labels + quad_labels + [NUCLEUS_LABEL]
    cone_index = {lab: k for k, lab in enumerate(cone_labels)}
    cone_lines = {frozenset(cone_index[lab] for lab in syn) for syn in syntheme_labels}
    for d in DUADS:
        cone_lines.add(frozenset((
            cone_index[NUCLEUS_LABEL],
            cone_index[subset_label(S_SET - set(d))],
            cone_index[duad_label(d)],
        )))
    for line in ml.cone.structure.lines:
        labs = {ml.label_of[ml.cone.w_points[q]] for q in line}
        cone_lines.add(frozenset(cone_index[lab] for lab in labs))
    cone = IncidenceStructure.from_lines(len(cone_labels), cone_lines, cone_labels)

    return SectorModels(hyperbolic, elliptic, cone)
