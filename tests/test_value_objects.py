"""The value objects are plain classes: construction (positional, keyword and
defaults), validation messages, repr/str strings, and value equality with
hashing where the package keeps it.  Every other object compares by identity."""

import pytest

from doilyspace.checks import DERIVED, PAPER, Check, VerificationReport
from doilyspace.doily import GRID, OVOID, DoilyHyperplane, build_doily, ovoid
from doilyspace.gf2 import (
    BilinearForm,
    BinaryVector,
    QuadraticForm,
    SymplecticForm,
    hyperbolic_form,
)
from doilyspace.incidence import IncidenceStructure, null_space_hyperplanes
from doilyspace.magicline import (
    Constituent,
    LineImage,
    PolarPairReport,
    SectorImage,
    SymplecticSpace,
    build_magic_line,
    build_sector_models,
    build_w52,
)
from doilyspace.veldkamp import VeldkampLine, VeldkampSpace, build_veldkamp_space

LINE = (frozenset({0, 1, 2}),)


def test_binary_vector():
    assert BinaryVector((1, 0, 1)).bits == BinaryVector(bits=(1, 0, 1)).bits == (1, 0, 1)
    assert str(BinaryVector((1, 0, 1))) == "101"
    with pytest.raises(ValueError, match="^vector must have at least one coordinate$"):
        BinaryVector(())
    with pytest.raises(ValueError, match=r"^coordinates must be 0 or 1: \(0, 2\)$"):
        BinaryVector((0, 2))
    with pytest.raises(ValueError, match="^dimension mismatch: 6 vs 4$"):
        BinaryVector.from_int(1, 6) ^ BinaryVector.from_int(1, 4)


def test_symplectic_and_bilinear_forms():
    assert SymplecticForm(4).dim == SymplecticForm(dim=4).dim == 4
    for dim in (0, 5):
        with pytest.raises(ValueError,
                           match=f"^symplectic dimension must be a positive even integer: {dim}$"):
            SymplecticForm(dim)
    gram = ((0, 1), (1, 0))
    assert BilinearForm(gram).gram == BilinearForm(gram=gram).gram == gram
    assert BilinearForm(gram).dim == 2


def test_quadratic_form_normalises_validates_and_compares_by_value():
    q = QuadraticForm(dim=4, monomials=[[0, 1], (2, 3)])
    assert q.monomials == frozenset({(0, 1), (2, 3)})
    assert q == hyperbolic_form(4) and hash(q) == hash(hyperbolic_form(4))
    assert q != QuadraticForm(4, {(0, 1)}) and q != QuadraticForm(6, q.monomials)
    assert q != (4, q.monomials)
    assert len({q, hyperbolic_form(4)}) == 1
    with pytest.raises(ValueError, match=r"^monomial \(2,1\) out of range for dimension 4$"):
        QuadraticForm(4, {(2, 1)})
    with pytest.raises(ValueError, match=r"^monomial \(0,4\) out of range for dimension 4$"):
        QuadraticForm(4, {(0, 4)})


def test_incidence_structure_construction_and_messages():
    g = IncidenceStructure(3, LINE)
    assert g.labels is None
    assert IncidenceStructure(point_count=3, lines=LINE, labels=None).labels is None
    assert IncidenceStructure(3, LINE, ("a", "b", "c")).labels == ("a", "b", "c")
    assert repr(g) == "IncidenceStructure(3 points, 1 lines)"
    cases = [
        ((frozenset({0}),), None, r"^line \{0\} has fewer than 2 points$"),
        ((frozenset({0, 5}),), None, r"^line \{0, 5\} has out-of-range points$"),
        (([0, 0, 1],), None, r"^line \[0, 0, 1\] names a point twice$"),
        ((frozenset({0, 1}),), ("a",), "^labels must match the point count$"),
    ]
    for lines, labels, message in cases:
        with pytest.raises(ValueError, match=message):
            IncidenceStructure(3, lines, labels)
    # a repeated line is dropped, a tuple line converted, and the lines
    # come out in the order of their ascending point tuples
    g = IncidenceStructure(3, [(1, 2), (0, 1), frozenset({2, 1})])
    assert g.lines == (frozenset({0, 1}), frozenset({1, 2}))
    assert IncidenceStructure(3, [(2, 0, 1)]).lines == LINE


def test_incidence_structure_compares_by_value():
    g = IncidenceStructure(3, LINE)
    same = IncidenceStructure.from_lines(3, [[2, 1, 0]])
    assert g == same and hash(g) == hash(same)
    assert g != IncidenceStructure(3, LINE, ("a", "b", "c"))
    assert g != IncidenceStructure(4, LINE)
    assert g != IncidenceStructure(3, (frozenset({0, 1}),))
    assert g != LINE
    # a rebuilt doily is still the doily, which is what classify_veldkamp_line asks
    doily = build_doily()
    assert IncidenceStructure(doily.point_count, doily.lines, doily.labels) == doily


def test_hyperplane():
    # a hyperplane is its int mask, and the Veldkamp space's points are the
    # same ints as its lines' members
    g = build_doily()
    vs = build_veldkamp_space(g)
    assert vs.points == tuple(null_space_hyperplanes(g))
    assert all(type(m) is int for m in vs.points)
    assert ovoid(1).mask in vs.points and ovoid(1).mask.bit_count() == 5
    assert {m for line in vs.lines for m in line.members} == set(vs.points)


def test_doily_hyperplane_compares_by_value():
    o1 = ovoid(1)
    copy = DoilyHyperplane(mask=o1.mask, kind=OVOID, index=(1,))
    assert copy is not o1 and copy == o1 and hash(copy) == hash(o1)
    assert DoilyHyperplane(o1.mask, GRID, (1,)) != o1
    assert DoilyHyperplane(o1.mask, OVOID, (2,)) != o1
    assert DoilyHyperplane(o1.mask + 1, OVOID, (1,)) != o1
    assert o1 != o1.mask
    assert str(o1) == o1.name == "o_1"


def test_veldkamp_line_and_space():
    vs = build_veldkamp_space(build_doily())
    line = vs.lines[0]
    rebuilt = VeldkampLine(geometry=line.geometry, members=line.members)
    assert rebuilt.members == line.members == (31, 481, 32257)
    assert repr(line) == "VeldkampLine(members=(31, 481, 32257))"
    assert repr(vs) == "VeldkampSpace(31 points, 155 lines)"
    again = VeldkampSpace(geometry=vs.geometry, points=vs.points, lines=vs.lines)
    assert repr(again) == repr(vs)
    # no value equality: equal contents are still two objects
    assert again != vs and rebuilt != line


def test_magic_line_objects():
    ml = build_magic_line()
    space = build_w52()
    assert repr(space) == "SymplecticSpace(63 points, 315 lines)"
    assert repr(SymplecticSpace(form=space.form, points=space.points,
                                structure=space.structure)) == repr(space)
    assert repr(ml) == "MagicLine(hyperbolic/elliptic/cone over W(5,2))"
    assert [repr(c) for c in ml.constituents.values()] == [
        "Constituent('hyperbolic', 35 points, 105 lines)",
        "Constituent('elliptic', 27 points, 45 lines)",
        "Constituent('cone', 31 points, 75 lines)"]
    c = Constituent(name="renamed", w_points=ml.cone.w_points, structure=ml.cone.structure)
    assert c.local_index(ml.cone.w_points[3]) == 3
    assert c != ml.cone
    models = build_sector_models()
    # a read-only mapping in the constituents' order
    assert list(models) == list(ml.constituents)
    with pytest.raises(TypeError):
        models["cone"] = models["elliptic"]


def test_sector_and_line_images():
    pair = SectorImage(sector="elliptic", labels=("1", "1'"))
    cone = SectorImage("cone", ("3456",))
    assert str(pair) == "1/1'" and str(cone) == "3456"
    image = LineImage(family="ovoid-ovoid-perp", members=(pair, SectorImage("elliptic", ("2", "2'")), cone))
    assert str(image) == "{1/1', 2/2', 3456}"
    assert image.family == "ovoid-ovoid-perp"


def test_polar_pair_report():
    fields = dict(sector="elliptic", pair_labels=("1", "1'"), pair_collinear=False,
                  mutual_perp_labels=("12", "13"), trace_name="o_1", matches_trace=True,
                  induced_line_count=0, every_point_on_induced_line=False,
                  has_universal_point=False, pairwise_non_collinear=True)
    report = PolarPairReport(*fields.values())
    assert vars(report) == fields
    assert report.is_rank_one_polar_space and not report.is_rank_two_polar_space


def test_check_and_report():
    passing = Check("equal", 1, 1, PAPER)
    failing = Check(name="differ", expected=[1], actual=[2], provenance=DERIVED)
    assert passing.passed and not failing.passed
    report = VerificationReport(suite="s", checks=[passing, failing], runtime_seconds=0.5)
    assert report.counts == (1, 1) and not report.passed
    assert report.to_text().splitlines()[-1] == "suite s: 1 passed, 1 failed (0.50s)"
    assert VerificationReport("s", [passing], 0.0).passed
