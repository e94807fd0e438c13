"""Veldkamp spaces of geometries with three points per line.

Points of the Veldkamp space are the geometric hyperplanes; lines are the
triples {H', H'', H' (+) H''} where (+) is the Veldkamp sum.  For the doily
the space has the PG(4,2) parameters 31 points / 155 lines, and the lines
fall into five families named after the kinds of their members.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations

from .doily import (
    DoilyHyperplane,
    GRID,
    OVOID,
    PERP_SET,
    S_SET,
    build_doily,
    classify_hyperplane,
)
from .incidence import (
    Hyperplane,
    IncidenceStructure,
    null_space_hyperplanes,
    veldkamp_sum_mask,
)

FAMILY_PERP_GRID_GRID = "perp-grid-grid"
FAMILY_PERP_TRIPLE_DISJOINT = "perp-perp-perp-disjoint"
FAMILY_PERP_TRIPLE_TRIANGLE = "perp-perp-perp-triangle"
FAMILY_OVOID_PERP_GRID = "ovoid-perp-grid"
FAMILY_OVOID_OVOID_PERP = "ovoid-ovoid-perp"

FAMILIES = (
    FAMILY_PERP_GRID_GRID,
    FAMILY_PERP_TRIPLE_DISJOINT,
    FAMILY_PERP_TRIPLE_TRIANGLE,
    FAMILY_OVOID_PERP_GRID,
    FAMILY_OVOID_OVOID_PERP,
)


@dataclass(frozen=True)
class VeldkampLine:
    """An unordered hyperplane triple closed under the Veldkamp sum."""

    geometry: IncidenceStructure = field(repr=False)
    members: tuple[int, int, int]

    def __post_init__(self) -> None:
        m1, m2, m3 = self.members
        if len({m1, m2, m3}) != 3:
            raise ValueError("Veldkamp line members must be distinct")
        if tuple(sorted(self.members)) != self.members:
            raise ValueError("members must be in ascending mask order")
        full = self.geometry.full_mask
        if veldkamp_sum_mask(full, m1, m2) != m3:
            raise ValueError("members are not closed under the Veldkamp sum")
        core = m1 & m2
        if m1 & m3 != core or m2 & m3 != core:
            raise ValueError("pairwise intersections of the members differ")

    @property
    def core_mask(self) -> int:
        return self.members[0] & self.members[1]

    def member_hyperplanes(self) -> tuple[Hyperplane, Hyperplane, Hyperplane]:
        return tuple(Hyperplane(self.geometry, m) for m in self.members)

    def __repr__(self) -> str:
        return f"VeldkampLine(members={self.members})"


@dataclass(frozen=True)
class VeldkampSpace:
    geometry: IncidenceStructure = field(repr=False)
    points: tuple[Hyperplane, ...]
    lines: tuple[VeldkampLine, ...]

    def __repr__(self) -> str:
        return f"VeldkampSpace({len(self.points)} points, {len(self.lines)} lines)"


def build_veldkamp_space(g: IncidenceStructure) -> VeldkampSpace:
    """Enumerate all hyperplanes and all Veldkamp lines of a 3-per-line geometry.

    The geometry must be a partial linear space with at least one line.  The
    hyperplane complements form a GF(2) subspace, and a 3-point line keeps
    the full point set out of it, so the Veldkamp sum of two distinct
    hyperplanes is again a hyperplane.
    """
    if not g.lines:
        raise ValueError("Veldkamp space construction requires at least one line")
    _require_partial_linear_space(g)
    hyperplanes = null_space_hyperplanes(g)
    full = g.full_mask
    triples = set()
    for m1, m2 in combinations([h.mask for h in hyperplanes], 2):
        triples.add(tuple(sorted((m1, m2, veldkamp_sum_mask(full, m1, m2)))))
    lines = tuple(VeldkampLine(g, t) for t in sorted(triples))
    return VeldkampSpace(g, tuple(hyperplanes), lines)


def _require_partial_linear_space(g: IncidenceStructure) -> None:
    """Raise ValueError naming two lines that share two points, if any do."""
    line_of_pair: dict[tuple[int, int], int] = {}
    for idx, line in enumerate(g.lines):
        for pair in combinations(sorted(line), 2):
            first = line_of_pair.setdefault(pair, idx)
            if first != idx:
                names = [", ".join(g.label_of(p) for p in sorted(l))
                         for l in (g.lines[first], line)]
                raise ValueError(
                    f"lines {{{names[0]}}} and {{{names[1]}}} share two points; "
                    "Veldkamp space construction requires a partial linear space")


def _doily_members(line: VeldkampLine) -> tuple[DoilyHyperplane, ...]:
    if line.geometry != build_doily():
        raise ValueError("not a Veldkamp line of the doily")
    return tuple(classify_hyperplane(m) for m in line.members)


def classify_veldkamp_line(line: VeldkampLine) -> str:
    """Assign one of the five doily families, validating the label arithmetic."""
    members = _doily_members(line)
    kinds = Counter(h.kind for h in members)
    by_kind = {k: [h for h in members if h.kind == k] for k in (OVOID, PERP_SET, GRID)}

    if kinds == {PERP_SET: 1, GRID: 2}:
        deep = set(by_kind[PERP_SET][0].index)
        g1, g2 = by_kind[GRID]
        for u in (set(g1.index), S_SET - set(g1.index)):
            for v in (set(g2.index), S_SET - set(g2.index)):
                if u ^ v == deep:
                    return FAMILY_PERP_GRID_GRID
        raise ValueError("perp/grid/grid triple with inconsistent labels")

    if kinds == {PERP_SET: 3}:
        duads = [set(h.index) for h in by_kind[PERP_SET]]
        union = duads[0] | duads[1] | duads[2]
        if all(not (a & b) for a, b in combinations(duads, 2)) and union == S_SET:
            return FAMILY_PERP_TRIPLE_DISJOINT
        if len(union) == 3 and all(len(a & b) == 1 for a, b in combinations(duads, 2)):
            return FAMILY_PERP_TRIPLE_TRIANGLE
        raise ValueError("perp-set triple with inconsistent deep points")

    if kinds == {OVOID: 1, PERP_SET: 1, GRID: 1}:
        i = by_kind[OVOID][0].index[0]
        deep = set(by_kind[PERP_SET][0].index)
        triple = {i} | deep
        grid_pair = (set(by_kind[GRID][0].index), S_SET - set(by_kind[GRID][0].index))
        if i not in deep and triple in grid_pair:
            return FAMILY_OVOID_PERP_GRID
        raise ValueError("ovoid/perp/grid triple with inconsistent labels")

    if kinds == {OVOID: 2, PERP_SET: 1}:
        indices = {h.index[0] for h in by_kind[OVOID]}
        if set(by_kind[PERP_SET][0].index) == indices:
            return FAMILY_OVOID_OVOID_PERP
        raise ValueError("ovoid/ovoid/perp triple with inconsistent labels")

    raise ValueError(f"no Veldkamp line family has member kinds {dict(kinds)}")


def family_census(lines) -> dict[str, int]:
    """Count the doily's Veldkamp lines per family, in canonical family order."""
    counts = Counter(classify_veldkamp_line(l) for l in lines)
    return {fam: counts.get(fam, 0) for fam in FAMILIES}
