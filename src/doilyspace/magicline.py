"""W(5,2) and the magic Veldkamp line: a hyperbolic quadric, an elliptic
quadric and a quadratic cone sharing a 15-point parabolic core isomorphic to
the doily.

The three off-core sectors model the doily's Veldkamp space: complementary
point pairs of the hyperbolic sector correspond to grids, complementary
pairs of the elliptic sector to ovoids, and the non-nucleus points of the
cone sector to perp-sets.  Everything is constructed from the standard forms
and certified by exhaustive checks; construction raises ConsistencyError if
any structural invariant fails.

Each sector's lines are stated once, as a rule in build_sector_models.  The
labellers only assign labels from the traces and one seed per sector, and
build_magic_line certifies each labelled constituent by checking that its
lines, spelled in labels, are exactly its model's lines.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import cached_property, lru_cache
from itertools import combinations, permutations
from types import MappingProxyType

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


class SymplecticSpace:
    """PG(5,2) with the totally isotropic lines of the standard alternating form.

    Point index w has the coordinate mask ``points[w] == w + 1`` (x_k at
    bit k - 1); its label spells x1...x6 as 0s and 1s.
    """

    def __init__(self, form: SymplecticForm, points: tuple[int, ...],
                 structure: IncidenceStructure) -> None:
        self.form = form
        self.points = points
        self.structure = structure

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
        len(points), lines, labels=[format(v, "06b")[::-1] for v in points])
    return SymplecticSpace(form, points, structure)


class Constituent:
    """One member of the magic line, with its induced line structure."""

    def __init__(self, name: str, w_points: tuple[int, ...],
                 structure: IncidenceStructure) -> None:
        self.name = name
        self.w_points = w_points
        self.structure = structure

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


class SectorCorrespondence:
    """The hyperplane classes of the core doily matched with sector objects."""

    def __init__(self, grid_pairs: Mapping[tuple[int, int, int], tuple[int, int]],
                 ovoid_pairs: Mapping[int, tuple[int, int]],
                 perp_points: Mapping[tuple[int, int], int]) -> None:
        self.grid_pairs = grid_pairs
        self.ovoid_pairs = ovoid_pairs
        self.perp_points = perp_points


class MagicLine:
    """The assembled triple (hyperbolic, elliptic, cone) with its labelling."""

    def __init__(self, space: SymplecticSpace, q_plus_form: QuadraticForm,
                 q_minus_form: QuadraticForm, cone_form: QuadraticForm,
                 q_plus: Constituent, q_minus: Constituent, cone: Constituent,
                 core_w: tuple[int, ...], core_structure: IncidenceStructure,
                 core_duads: Mapping[int, tuple[int, int]],
                 duad_to_w: Mapping[tuple[int, int], int], nucleus_w: int,
                 label_of: Mapping[int, str], w_of_label: Mapping[str, int],
                 pairs: SectorCorrespondence) -> None:
        self.space = space
        self.q_plus_form = q_plus_form
        self.q_minus_form = q_minus_form
        self.cone_form = cone_form
        self.q_plus = q_plus
        self.q_minus = q_minus
        self.cone = cone
        self.core_w = core_w
        self.core_structure = core_structure
        self.core_duads = core_duads
        self.duad_to_w = duad_to_w
        self.nucleus_w = nucleus_w
        self.label_of = label_of
        self.w_of_label = w_of_label
        self.pairs = pairs

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


def _off_traces(constituent: Constituent, core_duads: Mapping[int, tuple[int, int]],
                skip: int | None = None) -> dict[int, DoilyHyperplane]:
    """The traces of the constituent's off points other than ``skip``, in
    point order; the first broken trace raises."""
    return {w: _trace_hyperplane(constituent, w, core_duads) for w in constituent.w_points
            if w not in core_duads and w != skip}


def _seed(constituent: Constituent, traces: Mapping[int, DoilyHyperplane]) -> int:
    """The off point with the lexicographically smallest coordinate label."""
    return min(traces, key=lambda w: constituent.structure.label_of(constituent.local_index(w)))


def _hyperbolic_labels(qp: Constituent, traces: Mapping[int, DoilyHyperplane]) -> dict[int, str]:
    """Label the 20 off points by 3-subsets of S.

    The labels are forced by the traces up to swapping every complementary
    pair at once, so the seed gets its trace grid's 1-containing triple T.
    In the hyperbolic model two triples meet in 3 elements (the same point),
    1 (collinear points), 2 (non-collinear) or 0 (the seed's partner), so of
    the two triples {t, S \\ t} of a trace grid, the one meeting T in an odd
    number of elements labels the point exactly when that point is the seed
    or collinear with it.  build_magic_line certifies the result against the
    model.
    """
    seed = _seed(qp, traces)
    local = qp.local_index(seed)
    big_t = frozenset(traces[seed].index)
    labels = {}
    for w, h in traces.items():
        t = frozenset(h.index)
        odd = len(t & big_t) % 2 == 1
        labels[w] = subset_label(
            t if odd == collinear(qp.structure, local, qp.local_index(w)) else S_SET - t)
    return labels


def _elliptic_labels(qm: Constituent, traces: Mapping[int, DoilyHyperplane]) -> dict[int, str]:
    """Label the 12 off points as 1..6 and 1'..6' by their ovoid traces.

    In the elliptic model the unprimed points are pairwise non-collinear, and
    i is collinear with every j' but i'.  So the unprimed class is the seed
    together with the off points not collinear with it, leaving out the
    seed's partner (the other point of its trace); this fixes the one free
    choice.  build_magic_line certifies the result against the model.
    """
    seed = _seed(qm, traces)
    local = qm.local_index(seed)
    labels = {}
    for w, h in traces.items():
        unprimed = w == seed or (h.mask != traces[seed].mask and not collinear(
            qm.structure, local, qm.local_index(w)))
        labels[w] = f"{h.index[0]}" if unprimed else f"{h.index[0]}'"
    return labels


def _certify(constituent: Constituent, label_of: Mapping[int, str],
             model: IncidenceStructure) -> None:
    """The constituent's lines, spelled in labels, must be exactly its model's
    lines.  Every model point lies on a line and the point counts agree, so
    this also makes the labelling a bijection onto the model's points."""
    labelled = {frozenset(label_of[constituent.w_points[q]] for q in line)
                for line in constituent.structure.lines}
    expected = {frozenset(model.labels[q] for q in line) for line in model.lines}
    extra, missing = labelled - expected, expected - labelled
    if extra or missing:
        line = ", ".join(sorted(min(extra or missing, key=sorted)))
        where = ("is not a line of its sector model" if extra
                 else "of the sector model is missing from the labelled quadric")
        raise ConsistencyError(f"{constituent.name} line {{{line}}} {where}")


@lru_cache(maxsize=None)
def build_magic_line() -> MagicLine:
    """Construct and certify the magic Veldkamp line over W(5,2).

    The hyperbolic form is x1x2 + x3x4 + x5x6 and the elliptic form adds the
    irreducible x1^2 + x1x2 + x2^2 on the first two coordinates; both
    polarize to the standard alternating form, and their Veldkamp sum is the
    cone.  Every structural invariant is verified, not assumed: each sector's
    labelling is certified against its rule-built sector model.
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

    hyp_traces = _off_traces(qp, core_duads)
    ell_traces = _off_traces(qm, core_duads)
    cone_traces = _off_traces(cone, core_duads, skip=nucleus_w)
    label_of: dict[int, str] = {w: duad_label(d) for w, d in core_duads.items()}
    label_of.update(_hyperbolic_labels(qp, hyp_traces))
    label_of.update(_elliptic_labels(qm, ell_traces))
    # a cone point is the 4-subset complementary to its trace's deep duad
    label_of.update((w, subset_label(S_SET - set(h.index))) for w, h in cone_traces.items())
    label_of[nucleus_w] = NUCLEUS_LABEL
    models = build_sector_models()
    for constituent, model in ((qp, models.hyperbolic), (qm, models.elliptic),
                               (cone, models.cone)):
        _certify(constituent, label_of, model)
    w_of_label = {lab: w for w, lab in label_of.items()}

    def labelled(structure: IncidenceStructure, w_points) -> IncidenceStructure:
        return IncidenceStructure(structure.point_count, structure.lines,
                                  tuple(label_of[w] for w in w_points))

    def relabelled(c: Constituent) -> Constituent:
        return Constituent(c.name, c.w_points, labelled(c.structure, c.w_points))

    return MagicLine(
        space=space,
        q_plus_form=q_plus_form,
        q_minus_form=q_minus_form,
        cone_form=cone_form,
        q_plus=relabelled(qp),
        q_minus=relabelled(qm),
        cone=relabelled(cone),
        core_w=core_w,
        core_structure=labelled(core_structure, core_w),
        core_duads=MappingProxyType(dict(core_duads)),
        duad_to_w=MappingProxyType(dict(duad_to_w)),
        nucleus_w=nucleus_w,
        label_of=MappingProxyType(dict(label_of)),
        w_of_label=MappingProxyType(dict(w_of_label)),
        pairs=SectorCorrespondence(
            grid_pairs=MappingProxyType({h.index: (
                w_of_label[subset_label(h.index)],
                w_of_label[subset_label(S_SET - set(h.index))]) for h in hyp_traces.values()}),
            ovoid_pairs=MappingProxyType({h.index[0]: (
                w_of_label[f"{h.index[0]}"],
                w_of_label[f"{h.index[0]}'"]) for h in ell_traces.values()}),
            perp_points=MappingProxyType({h.index: w for w, h in cone_traces.items()}),
        ),
    )


def doily_trace(ml: MagicLine, w: int) -> DoilyHyperplane | None:
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


def complementary_point(ml: MagicLine, w: int) -> int | None:
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


class SectorImage:
    """A hyperplane's counterpart among the off points: a pair or a point."""

    def __init__(self, sector: str, labels: tuple[str, ...]) -> None:
        self.sector = sector
        self.labels = labels

    def __str__(self) -> str:
        return "/".join(self.labels)


class LineImage:
    """Sector images of a Veldkamp line's three members, in member order."""

    def __init__(self, family: str,
                 members: tuple[SectorImage, SectorImage, SectorImage]) -> None:
        self.family = family
        self.members = members

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


class PolarPairReport:
    """Outcome of the mutual-perp inspection for one complementary pair."""

    def __init__(self, sector: str, pair_labels: tuple[str, str], pair_collinear: bool,
                 mutual_perp_labels: tuple[str, ...], trace_name: str, matches_trace: bool,
                 induced_line_count: int, every_point_on_induced_line: bool,
                 has_universal_point: bool, pairwise_non_collinear: bool) -> None:
        self.sector = sector
        self.pair_labels = pair_labels
        self.pair_collinear = pair_collinear
        self.mutual_perp_labels = mutual_perp_labels
        self.trace_name = trace_name
        self.matches_trace = matches_trace
        self.induced_line_count = induced_line_count
        self.every_point_on_induced_line = every_point_on_induced_line
        self.has_universal_point = has_universal_point
        self.pairwise_non_collinear = pairwise_non_collinear

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


class SectorModels:
    """Coordinate-free models of the three constituents, built by rule."""

    def __init__(self, hyperbolic: IncidenceStructure, elliptic: IncidenceStructure,
                 cone: IncidenceStructure) -> None:
        self.hyperbolic = hyperbolic
        self.elliptic = elliptic
        self.cone = cone


def _sector_model(labels: list[str], off_lines: list[list[str]]) -> IncidenceStructure:
    """The 15 duads and the given off-point labels, with the 15 synthemes and
    the given off-lines, every line spelled in labels."""
    labels = [duad_label(d) for d in DUADS] + labels
    index = {lab: k for k, lab in enumerate(labels)}
    lines = [[duad_label(d) for d in syn] for syn in SYNTHEMES] + off_lines
    return IncidenceStructure.from_lines(
        len(labels), ([index[lab] for lab in line] for line in lines), labels)


@lru_cache(maxsize=None)
def build_sector_models() -> SectorModels:
    """The combinatorial models around the duad-syntheme doily, each sector's
    lines given by one rule; build_magic_line certifies its labelling against
    them, and verify finds their isomorphisms onto the coordinate quadrics.

    Hyperbolic: 20 triples; two triples X, Y meeting in one element lie on a
    line with the duad (X n Y) u (S \\ (X u Y)), the 90 lines {abc, aij, ak}.
    Elliptic: 1..6 and 1'..6', with the 30 lines {i, j', ij}.  Cone: the
    15 4-subsets and the nucleus label, with the 15 vertex lines
    {123456, S \\ ij, ij} and, for each syntheme {ij, kl, mn} and each choice
    of its core duad mn, the line {S \\ ij, S \\ kl, mn}: 45 lines.
    """
    triples = [frozenset(t) for t in combinations(S_ELEMENTS, 3)]
    hyperbolic = _sector_model(
        [subset_label(t) for t in triples],
        [[subset_label(x), subset_label(y), subset_label((x & y) | (S_SET - (x | y)))]
         for x, y in combinations(triples, 2) if len(x & y) == 1])
    elliptic = _sector_model(
        [f"{i}" for i in S_ELEMENTS] + [f"{i}'" for i in S_ELEMENTS],
        [[f"{i}", f"{j}'", subset_label((i, j))] for i, j in permutations(S_ELEMENTS, 2)])

    def quad(d):
        return subset_label(S_SET - set(d))

    cone = _sector_model(
        sorted(quad(d) for d in DUADS) + [NUCLEUS_LABEL],
        [[NUCLEUS_LABEL, quad(d), duad_label(d)] for d in DUADS]
        + [[quad(a), quad(b), duad_label(c)] for syn in SYNTHEMES
           for a, b, c in permutations(syn)])
    return SectorModels(hyperbolic, elliptic, cone)
