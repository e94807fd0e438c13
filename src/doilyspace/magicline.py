"""W(5,2) and the magic Veldkamp line: a hyperbolic quadric, an elliptic
quadric and a quadratic cone sharing a 15-point parabolic core isomorphic to
the doily.

The three off-core sectors model the doily's Veldkamp space: complementary
point pairs of the hyperbolic sector correspond to grids, complementary
pairs of the elliptic sector to ovoids, and the non-nucleus points of the
cone sector to perp-sets.  Everything is constructed from the standard forms
and certified by exhaustive checks; construction raises ConsistencyError if
any structural invariant fails.

Each sector's lines are stated once, as a rule in build_sector_models, and
one labeller reads each off point's label, one of the sector_labels of its
trace, off that model; build_magic_line certifies each labelled constituent
against its model.  The correspondence is read off these labels: the points
tracing h are labelled sector_labels(h).
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
    _check_hyperplane,
    all_named_hyperplanes,
    build_doily,
    classify_hyperplane,
    duad_label,
)
from .gf2 import (
    ELLIPTIC,
    HYPERBOLIC,
    QuadraticForm,
    SymplecticForm,
    classify_form,
    coordinate_masks,
    elliptic_form,
    hyperbolic_form,
    polarize,
)
from .incidence import (
    IncidenceStructure,
    _check_point,
    deep_points_mask,
    find_isomorphism,
    induced_substructure,
    is_geometric_hyperplane,
    mask_of,
    points_of,
    popcount,
)
from .veldkamp import FAMILY_RULES, VeldkampLine, classify_veldkamp_line, family_of

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


def _names(struct: IncidenceStructure, points) -> str:
    """W(5,2) points by coordinate label and index, for error messages."""
    return ", ".join(f"{struct.label_of(w)} (W(5,2) index {w})" for w in points) or "none"


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
    """63 points; the lines {x, y, x+y} with theta(x, y) = 0, each built once, from x < y < x+y."""
    form = SymplecticForm(6)
    points = coordinate_masks(range(1, 1 << form.dim), form.dim)
    lines = [(x - 1, y - 1, (x ^ y) - 1) for x, y in combinations(points, 2)
             if y < x ^ y and form.theta(x, y) == 0]
    structure = IncidenceStructure(
        len(points), lines, labels=[format(v, f"0{form.dim}b")[::-1] for v in points])
    return SymplecticSpace(form, points, structure)


class Constituent:
    """One member of the magic line: its W(5,2) points, ascending, their
    mask, and its induced line structure, whose point k is ``w_points[k]``."""

    def __init__(self, name: str, w_points: tuple[int, ...],
                 structure: IncidenceStructure) -> None:
        self.name = name
        self.w_points = w_points
        self.structure = structure
        self.mask = mask_of(w_points)
        self._local = {w: k for k, w in enumerate(w_points)}

    def local_index(self, w: int) -> int:
        return self._local[w]

    def __repr__(self) -> str:
        return (f"Constituent({self.name!r}, {len(self.w_points)} points, "
                f"{len(self.structure.lines)} lines)")


class MagicLine:
    """The assembled triple (hyperbolic, elliptic, cone) with its labelling.

    ``traces`` maps each of the 47 off points other than the nucleus to the
    core hyperplane it traces, as certified while the line was built.
    """

    def __init__(self, space: SymplecticSpace, q_plus_form: QuadraticForm,
                 q_minus_form: QuadraticForm, cone_form: QuadraticForm,
                 q_plus: Constituent, q_minus: Constituent, cone: Constituent,
                 core_w: tuple[int, ...], core_structure: IncidenceStructure,
                 core_duads: Mapping[int, tuple[int, int]], nucleus_w: int,
                 label_of: Mapping[int, str], w_of_label: Mapping[str, int],
                 traces: Mapping[int, DoilyHyperplane]) -> None:
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
        self.nucleus_w = nucleus_w
        self.label_of = label_of
        self.w_of_label = w_of_label
        self.traces = traces
        self.core_set = frozenset(core_w)
        # sector name -> constituent, in the order hyperbolic, elliptic, cone
        self.constituents = MappingProxyType({c.name: c for c in (q_plus, q_minus, cone)})

    def sector_of(self, w: int) -> str:
        _check_point(w, len(self.space.points))
        if w in self.core_set:
            return CORE
        for sector, constituent in self.constituents.items():
            if constituent.mask >> w & 1:
                return sector
        raise ConsistencyError(f"point {w} lies in no constituent")

    @cached_property
    def sector_images(self) -> Mapping[int, SectorImage]:
        """Mask of each of the doily's 31 hyperplanes -> its sector image."""
        labels = {h.mask: sector_labels(h) for h in all_named_hyperplanes()}
        return MappingProxyType({m: SectorImage(self.sector_of(self.w_of_label[ls[0]]), ls)
                                 for m, ls in labels.items()})

    def __repr__(self) -> str:
        return "MagicLine(hyperbolic/elliptic/cone over W(5,2))"


def sector_labels(h: DoilyHyperplane) -> tuple[str, ...]:
    """The labels of the off points that trace h on the core: i and i' for
    the ovoid o_i, t and S \\ t for a grid with canonical triple t, and
    S \\ ij for the perp-set p_ij."""
    _check_hyperplane(h, "h")  # before the cache, which cannot hash every bad argument
    return _sector_labels(h)


@lru_cache(maxsize=32)  # room for the doily's 31 hyperplanes
def _sector_labels(h: DoilyHyperplane) -> tuple[str, ...]:
    if h.kind == OVOID:
        return f"{h.index[0]}", f"{h.index[0]}'"
    rest = subset_label(S_SET - set(h.index))
    return (subset_label(h.index), rest) if h.kind == GRID else (rest,)


def _perp_trace(space: SymplecticSpace, sector: str, quadric: int, core: int,
                duad_bit: Mapping[int, int], w: int) -> DoilyHyperplane:
    """The trace of an off point w on the core, read linearly: its perp's core
    points, as doily points through duad_bit (W(5,2) index -> duad bit).  As
    Q(x + y) = Q(x) + Q(y) + theta(x, y), a W(5,2) line through two points of
    the quadric (a point mask) lies in it, so the trace must have one point on
    each line through w inside it, and be a hyperplane of the sector's SECTOR_KIND."""
    struct = space.structure
    mask = 0
    for v in points_of(core & struct.perp_masks[w]):
        mask |= duad_bit[v]
    lines = sum(not struct.line_masks[idx] & ~quadric for idx in struct.lines_through[w])
    if popcount(mask) != lines:
        raise ConsistencyError(f"{sector} point {_names(struct, [w])}: its trace must have one "
                               f"point on each of the {lines} lines through it inside its "
                               f"quadric, got {popcount(mask)}")
    try:
        h = classify_hyperplane(mask)
    except ValueError as err:
        raise ConsistencyError(f"{sector} point {_names(struct, [w])}: its trace is not a "
                               "hyperplane of the doily") from err
    if h.kind != (kind := SECTOR_KIND[sector]):
        raise ConsistencyError(f"{sector} point {_names(struct, [w])}: its trace must be of "
                               f"kind {kind}, got {h.kind}")
    return h


def _off_traces(space: SymplecticSpace, sector: str, quadric: int,
                duad_bit: Mapping[int, int], skip: int | None) -> dict[int, DoilyHyperplane]:
    """The traces of the quadric's off points but ``skip``, in order; the first broken raises."""
    core = mask_of(duad_bit)
    return {w: _perp_trace(space, sector, quadric, core, duad_bit, w)
            for w in points_of(quadric & ~core) if w != skip}


def _model_labels(space: SymplecticSpace, traces: Mapping[int, DoilyHyperplane],
                  model: IncidenceStructure) -> dict[int, str]:
    """Give each traced off point one of the sector_labels of its trace.

    The seed, the off point with the smallest coordinate label, takes its
    trace's first label, which fixes the sector's one free choice.  For any
    seed, exactly one label of each two-label trace is collinear in the model
    with the seed's first label, so a point takes its first label when that
    collinearity matches W(5,2)'s collinearity of the point with the seed,
    else its last; a cone point has only one.  _certify checks the result.
    """
    seed = min(traces, key=space.structure.label_of)
    index = {lab: k for k, lab in enumerate(model.labels)}
    model_perp = model.perp_masks[index[sector_labels(traces[seed])[0]]]
    w_perp = space.structure.perp_masks[seed]
    labels = {}
    for w, h in traces.items():
        ls = sector_labels(h)
        same = (model_perp >> index[ls[0]] & 1) == (w_perp >> w & 1)
        labels[w] = ls[0] if same else ls[-1]
    return labels


def _certify(constituent: Constituent, model: IncidenceStructure) -> None:
    """The constituent's lines, spelled in its labels, must be exactly its
    model's lines.  Every model point lies on a line and the point counts
    agree, so this also makes the labelling a bijection onto the model's points."""
    struct = constituent.structure
    labelled = {frozenset(struct.labels[q] for q in line) for line in struct.lines}
    expected = {frozenset(model.labels[q] for q in line) for line in model.lines}
    extra, missing = labelled - expected, expected - labelled
    if extra or missing:
        line = ", ".join(sorted(min(extra or missing, key=sorted)))
        where = ("is not a line of its sector model" if extra
                 else "of the sector model is missing from the labelled quadric")
        raise ConsistencyError(f"{constituent.name} line {{{line}}} {where}")


def label_map(model: IncidenceStructure, structure: IncidenceStructure) -> dict[int, int]:
    """Model point -> the structure's point of the same label; each model label must occur."""
    local = {lab: k for k, lab in enumerate(structure.labels)}
    return {p: local[lab] for p, lab in enumerate(model.labels)}


@lru_cache(maxsize=None)
def build_magic_line() -> MagicLine:
    """Construct and certify the magic Veldkamp line over W(5,2).

    Q+ is x1x2 + x3x4 + ... and Q- adds the irreducible x1^2 + x1x2 + x2^2
    on the first two coordinates; both polarize to the standard alternating
    form, and classify_form certifies their kinds.  Each constituent is its
    form's zero set, the cone that of their sum, and the three must be a line
    of the Veldkamp space of W(5,2).  The nucleus is the cone's one deep
    point, off the core, and the cone must be its perp.  The core's size
    comes from its isomorphism with the doily.  Each sector's labelling is
    certified against its rule-built sector model.
    """
    space = build_w52()
    q_plus_form = hyperbolic_form(space.form.dim)
    q_minus_form = elliptic_form(space.form.dim)
    cone_form = q_plus_form + q_minus_form
    _require(polarize(q_plus_form).gram == polarize(q_minus_form).gram == space.form.gram(),
             "Q+ and Q- must polarize to the standard alternating form")

    kind = classify_form(q_plus_form)
    _require(kind == HYPERBOLIC, f"Q+ must be a hyperbolic quadric, got {kind}")
    kind = classify_form(q_minus_form)
    _require(kind == ELLIPTIC, f"Q- must be an elliptic quadric, got {kind}")

    # point index w has the coordinate mask w + 1
    qp_mask, qm_mask, cone_mask = (mask_of(v - 1 for v in form.zero_points())
                                   for form in (q_plus_form, q_minus_form, cone_form))
    core_mask = qp_mask & qm_mask
    for name, m in (("Q+", qp_mask), ("Q-", qm_mask), ("cone", cone_mask)):
        _require(is_geometric_hyperplane(space.structure, m),
                 f"{name} must be a geometric hyperplane of W(5,2)")
    try:
        VeldkampLine(space.structure, tuple(sorted((qp_mask, qm_mask, cone_mask))))
    except ValueError as err:
        raise ConsistencyError(
            "Q+, Q- and the cone must form a line of the Veldkamp space of W(5,2)") from err

    deep = points_of(deep_points_mask(space.structure, cone_mask))
    _require(len(deep) == 1, "the cone must have one deep point, its nucleus, "
                             f"got {_names(space.structure, deep)}")
    nucleus_w = deep[0]
    _require((core_mask >> nucleus_w) & 1 == 0,
             f"nucleus {_names(space.structure, deep)} must lie off the core")
    _require(cone_mask == space.structure.perp_masks[nucleus_w],
             f"the cone must be the perp of its nucleus {_names(space.structure, deep)}")

    core_structure, core_w = induced_substructure(space.structure, points_of(core_mask))
    iso = find_isomorphism(core_structure, build_doily())
    _require(iso is not None, "core must be isomorphic to the duad-syntheme doily")
    core_duads = {core_w[local]: DUADS[image] for local, image in iso.items()}
    duad_bit = {core_w[local]: 1 << image for local, image in iso.items()}

    models = build_sector_models()
    label_of = {w: duad_label(d) for w, d in core_duads.items()} | {nucleus_w: NUCLEUS_LABEL}
    traces: dict[int, DoilyHyperplane] = {}
    constituents = []
    for name, mask in zip(SECTOR_KIND, (qp_mask, qm_mask, cone_mask)):
        model = models[name]
        sector_traces = _off_traces(space, name, mask, duad_bit, skip=nucleus_w)
        label_of.update(_model_labels(space, sector_traces, model))
        traces.update(sector_traces)
        w_points = points_of(mask)
        structure, _ = induced_substructure(space.structure, w_points,
                                            [label_of[w] for w in w_points])
        constituents.append(Constituent(name, w_points, structure))
        _certify(constituents[-1], model)
    qp, qm, cone = constituents

    return MagicLine(
        space=space, q_plus_form=q_plus_form, q_minus_form=q_minus_form, cone_form=cone_form,
        q_plus=qp, q_minus=qm, cone=cone, core_w=core_w,
        core_structure=core_structure,
        core_duads=MappingProxyType(core_duads), nucleus_w=nucleus_w,
        label_of=MappingProxyType(label_of),
        w_of_label=MappingProxyType({lab: w for w, lab in label_of.items()}),
        traces=MappingProxyType(traces))


def doily_trace(ml: MagicLine, w: int) -> DoilyHyperplane | None:
    """The core hyperplane cut out by the constituent lines through an off point.

    Grids for hyperbolic points, ovoids for elliptic points, perp-sets for
    non-nucleus cone points.  The nucleus traces the whole core through its
    15 vertex lines, which is not a proper hyperplane: returns None for it.
    The traces are computed and certified once, when build_magic_line builds
    the line, and read here from ``ml.traces``.
    """
    if ml.sector_of(w) == CORE:
        raise ValueError(f"point {w} lies on the core doily and has no trace")
    if w == ml.nucleus_w:
        return None
    return ml.traces[w]


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
    first, second = sector_labels(ml.traces[w])
    return ml.w_of_label[second if ml.label_of[w] == first else first]


class SectorImage:
    """A hyperplane's counterpart among the off points: a pair or a point."""

    def __init__(self, sector: str, labels: tuple[str, ...]) -> None:
        self.sector = sector
        self.labels = labels

    @cached_property
    def subsets(self) -> frozenset[int] | tuple[frozenset[int], ...]:
        """The subsets of S the labels stand for: {i}, S \\ klmn or both triples of ijk/lmn."""
        sets = tuple(label_elements(lab.rstrip("'")) for lab in self.labels)
        if self.sector == HYPERBOLIC_SECTOR:
            return sets
        return sets[0] if self.sector == ELLIPTIC_SECTOR else S_SET - sets[0]

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
    """Map one doily hyperplane to its sector object, the points tracing it."""
    _check_hyperplane(h, "h")
    return ml.sector_images[h.mask]


def veldkamp_line_image(ml: MagicLine, line: VeldkampLine) -> LineImage:
    """Replace each member of a doily Veldkamp line by its sector object."""
    family = classify_veldkamp_line(line)  # certifies the members are doily hyperplanes
    return LineImage(family, tuple(ml.sector_images[m] for m in line.members))


def image_matches_family(image: LineImage) -> bool:
    """Check the label arithmetic of a line image against its family pattern.

    Labels are read as the subsets of S their members stand for (i/i' as
    {i}, klmn as S \\ klmn, ijk/lmn as both triples).  The image matches when
    family_of finds its family in FAMILY_RULES, the one statement of the five
    families; an unknown family name raises KeyError.  In the paper's notation:

    perp-grid-grid        -> {klmn, ikl/jmn, jkl/imn}
    perp triple disjoint  -> {klmn, ijmn, ijkl}
    perp triple triangle  -> {klmn, jlmn, ilmn}
    ovoid-perp-grid       -> {i/i', ilmn, ijk/lmn}
    ovoid-ovoid-perp      -> {i/i', j/j', klmn}
    """
    if image.family not in FAMILY_RULES:
        raise KeyError(image.family)
    return family_of((SECTOR_KIND[m.sector], m.subsets)
                     for m in image.members if m.sector in SECTOR_KIND) == image.family


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
    """Inspect the mutual perp of a complementary pair inside its constituent,
    read off W(5,2)'s perps and lines cut to its mask: points of Q+ or Q- are
    collinear in the quadric exactly when they are in W(5,2) (see _perp_trace)."""
    sector = ml.sector_of(p)
    ml.sector_of(q)  # q too must be a point index
    if p == q:
        raise ValueError("a polar-pair check needs two distinct points")
    if sector not in (HYPERBOLIC_SECTOR, ELLIPTIC_SECTOR):
        raise ValueError(f"polar-pair checks apply to hyperbolic and elliptic pairs, got {sector}")
    if complementary_point(ml, p) != q:
        raise ValueError(f"points {p} and {q} are not a complementary pair")

    struct = ml.space.structure
    mutual_mask = struct.perp_masks[p] & struct.perp_masks[q] & ml.constituents[sector].mask
    mutual = points_of(mutual_mask)
    trace = ml.traces[p]
    trace_mask = mask_of(ml.w_of_label[duad_label(d)] for d in trace.duads)
    inside = {idx for x in mutual for idx in struct.lines_through[x]
              if struct.line_masks[idx] & ~mutual_mask == 0}
    every_on_line = all(any(struct.line_masks[idx] >> x & 1 for idx in inside) for x in mutual)
    universal = any(mutual_mask & ~struct.perp_masks[x] == 0 for x in mutual)
    non_collinear = all(struct.perp_masks[x] & mutual_mask == 1 << x for x in mutual)

    return PolarPairReport(
        sector=sector,
        pair_labels=(ml.label_of[p], ml.label_of[q]),
        pair_collinear=bool(struct.perp_masks[p] >> q & 1),
        mutual_perp_labels=tuple(ml.label_of[x] for x in mutual),
        trace_name=trace.name,
        matches_trace=mutual_mask == trace_mask,
        induced_line_count=len(inside),
        every_point_on_induced_line=every_on_line,
        has_universal_point=universal,
        pairwise_non_collinear=non_collinear,
    )


@lru_cache(maxsize=None)
def build_sector_models() -> Mapping[str, IncidenceStructure]:
    """The combinatorial models around the duad-syntheme doily, a read-only
    mapping from sector name to model in the order hyperbolic, elliptic, cone:
    the 15 duads and synthemes, then off points 15, 16, ... and off-lines given
    by one rule on point indices.  build_magic_line certifies its labelling
    against them; verify checks label_map onto each quadric with is_isomorphism.

    Hyperbolic: 20 triples; two triples X, Y meeting in one element lie on a
    line with the duad (X n Y) u (S \\ (X u Y)), the 90 lines {abc, aij, ak}.
    Elliptic: 1..6 and 1'..6', with the 30 lines {i, j', ij}.  Cone: the
    15 4-subsets and the nucleus label, with the 15 vertex lines
    {123456, S \\ ij, ij} and, for each syntheme {ij, kl, mn} and each choice
    of its core duad mn, the line {S \\ ij, S \\ kl, mn}: 45 lines.
    """
    triples = [frozenset(t) for t in combinations(S_ELEMENTS, 3)]
    doily = build_doily()
    off = {
        HYPERBOLIC_SECTOR: ([subset_label(t) for t in triples], [
            (15 + a, 15 + b, DUAD_INDEX[tuple(sorted(x & y | S_SET - (x | y)))])
            for (a, x), (b, y) in combinations(enumerate(triples), 2) if len(x & y) == 1]),
        ELLIPTIC_SECTOR: ([f"{i}" for i in S_ELEMENTS] + [f"{i}'" for i in S_ELEMENTS], [
            (14 + i, 20 + j, DUAD_INDEX[min(i, j), max(i, j)])
            for i, j in permutations(S_ELEMENTS, 2)]),
        # the 4-subsets S \ d, in label order, run over the duads reversed: duad k's is 29 - k
        CONE_SECTOR: ([subset_label(S_SET - set(d)) for d in reversed(DUADS)] + [NUCLEUS_LABEL],
                      [(30, 29 - k, k) for k in range(15)]
                      + [(29 - a, 29 - b, c) for line in doily.lines
                         for a, b, c in permutations(line) if a < b]),
    }
    return MappingProxyType({
        name: IncidenceStructure(15 + len(labels), [*doily.lines, *lines],
                                 doily.labels + tuple(labels))
        for name, (labels, lines) in off.items()})
