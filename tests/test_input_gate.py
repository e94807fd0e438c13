"""Every public entry point that takes a point, a mask or an element of S
checks it through one of three shared checks, and every GF(2) form its
coordinate masks through a fourth: a value that is not an int, or is a
bool, raises TypeError naming its type, and an int out of range raises an
error naming the value and, where there is one, the range.  The forms'
monomial indices and Gram entries, the dimensions of ``hyperbolic_form``
and ``elliptic_form``, a ``BinaryVector``'s bits, ``BinaryVector.from_int``'s
value and dimension, and ``check_gq``'s orders are ints the same way; their
TypeError names the value too, and a monomial listed twice is a ValueError,
as is one of a length other than two; a monomial that is not a tuple or
list is a TypeError.  A function that takes a doily hyperplane raises
TypeError naming the argument for anything else, a mask included, and so
do one that takes a Veldkamp line and one that takes a quadratic form.
A structure's line that is not iterable raises TypeError naming the line,
and a label that is not a str TypeError naming its index, type and value.

One table: each entry point against True, 1.0, -1, frozenset({1}) and its
first value past the range.  ``mask_of`` and ``points_of`` have no range, so
-1 is their only int case; ``is_geometric_hyperplane`` answers False for an
int outside the point set.  A True or a 1.0 equals a valid value (1), so
each of them was once read as that value.
"""

import re

import pytest

from doilyspace.doily import (
    apply_duad_permutation,
    build_doily,
    classify_hyperplane,
    grid,
    ovoid,
    perp_set,
    veldkamp_sum,
)
from doilyspace.gf2 import (
    BilinearForm,
    BinaryVector,
    QuadraticForm,
    SymplecticForm,
    classify_form,
    coordinate_masks,
    elliptic_form,
    hyperbolic_form,
    polarize,
)
from doilyspace.incidence import (
    IncidenceStructure,
    check_gq,
    collinear,
    deep_points_mask,
    induced_substructure,
    is_geometric_hyperplane,
    is_isomorphism,
    mask_of,
    points_of,
)
from doilyspace.magicline import (
    build_magic_line,
    sector_image,
    sector_labels,
    veldkamp_line_image,
)
from doilyspace.veldkamp import (
    VeldkampLine,
    build_veldkamp_space,
    classify_veldkamp_line,
    family_census,
)

DOILY = build_doily()
NON_INTS = [(True, "bool"), (1.0, "float"), (frozenset({1}), "frozenset")]
LABELS = [(1, "int"), (True, "bool"), (None, "NoneType"), (b"b", "bytes")]


def _line_members() -> tuple[int, int]:
    """Two masks that form a Veldkamp line of the doily with o_1."""
    a, b = ovoid(1).mask, ovoid(2).mask
    return b, DOILY.full_mask ^ a ^ b


def _rows(name, call, type_prefix, ints):
    """The gate cases of one entry point: each non-int raises TypeError
    with type_prefix and its type name, and each (value, outcome) of ints
    raises outcome = (exception type, message) or returns outcome = False."""
    rows = [pytest.param(call, bad, (TypeError, f"{type_prefix}, got {kind}"),
                         id=f"{name}-{kind}") for bad, kind in NON_INTS]
    rows += [pytest.param(call, bad, outcome, id=f"{name}-{bad}") for bad, outcome in ints]
    return rows


def _point(name, call, n, label="point index"):
    """Rows of an entry point that checks a point of 0..n-1."""
    return _rows(name, call, f"{label} must be an int",
                 [(p, (IndexError, f"{label} {p} out of range (0..{n - 1})")) for p in (-1, n)])


def _mask(name, call, outside=None):
    """Rows of an entry point that checks a mask of the doily's points; a
    mask outside them raises ValueError unless outside gives the outcome."""
    full = DOILY.full_mask
    return _rows(name, call, "subset must be an int mask",
                 [(m, outside if outside is not None
                   else (ValueError, f"mask {m} is outside 0..{full}")) for m in (-1, full + 1)])


def _s(name, call, message):
    """Rows of an entry point that checks elements of S = {1,...,6}; message
    gives the ValueError's text for an int i outside S."""
    return _rows(name, call, "S element must be an int",
                 [(i, (ValueError, message(i))) for i in (-1, 7)])


def _hyperplane(name, call, arg):
    """Rows of an entry point whose argument arg must be a DoilyHyperplane:
    its mask, a bool, None and a list (which no cache can hash) each raise
    TypeError naming arg."""
    return [pytest.param(call, bad, (
        TypeError, f"{arg} must be a DoilyHyperplane, got {kind}; "
                   "classify_hyperplane(mask) gives the one of a mask"), id=f"{name}-{kind}")
            for bad, kind in ((ovoid(1).mask, "int"), (True, "bool"), (None, "NoneType"),
                              ([1], "list"))]


def _identity_with(points, bad, key):
    """The identity on points, with bad for the key 1 if key is true, else for its value."""
    mapping = {p: p for p in points if p != 1}
    mapping.update({bad: 1} if key else {1: bad})
    return mapping


def _coordinates(name, call):
    """Rows of an entry point that checks a coordinate mask of a 6-vector."""
    return _rows(name, call, "coordinates must be an int mask",
                 [(x, (ValueError, f"coordinate mask {x} out of range for dimension 6"))
                  for x in (-1, 64)])


def _form_int(name, call, what, ints):
    """Rows of a GF(2) form's int argument: each non-int raises TypeError
    naming what, its type and its value; ints as in _rows."""
    rows = [pytest.param(call, bad, (TypeError, f"{what} must be an int, got {kind}: {bad!r}"),
                         id=f"{name}-{kind}") for bad, kind in NON_INTS]
    rows += [pytest.param(call, bad, outcome, id=f"{name}-{bad}") for bad, outcome in ints]
    return rows


def _monomial(i, j):
    return ValueError, f"monomial ({i},{j}) out of range for dimension 3"


S = range(1, 7)
SYMPLECTIC = SymplecticForm(6)
GRAM = BilinearForm(SYMPLECTIC.gram())
CASES = [
    *_point("label_of", DOILY.label_of, 15),
    *_point("degree", DOILY.degree, 15),
    *_point("collinear-first", lambda p: collinear(DOILY, p, 2), 15),
    *_point("collinear-second", lambda p: collinear(DOILY, 2, p), 15),
    *_point("sector_of", lambda w: build_magic_line().sector_of(w), 63),
    *_point("is_isomorphism-key", lambda p: is_isomorphism(
        DOILY, DOILY, _identity_with(range(15), p, key=True)), 15, "mapping key"),
    *_point("is_isomorphism-value", lambda p: is_isomorphism(
        DOILY, DOILY, _identity_with(range(15), p, key=False)), 15, "mapping value"),
    pytest.param(lambda _: is_isomorphism(DOILY, DOILY, {False: 0, True: 1} | {
        p: p for p in range(2, 15)}), None, (TypeError, "mapping key must be an int, got bool"),
        id="is_isomorphism-bool-keys"),
    *_rows("mask_of", lambda p: mask_of([2, p]), "point index must be an int",
           [(-1, (ValueError, "point index -1 is negative"))]),
    *_rows("induced_substructure", lambda p: induced_substructure(DOILY, [0, p]),
           "point index must be an int",
           [(-1, (ValueError, "point index -1 is negative")),
            (15, (ValueError, "point index 15 is not in 0..14")),
            ("a", (TypeError, "point index must be an int, got str"))]),
    *_rows("from_lines", lambda p: IncidenceStructure.from_lines(3, [[0, p, 2]]),
           "point index must be an int",
           [(p, (ValueError, f"line {set(frozenset({0, p, 2}))} has out-of-range points"))
            for p in (-1, 3)]),
    *_rows("constructor", lambda p: IncidenceStructure(3, [frozenset({0, p, 2})]),
           "point index must be an int",
           [(p, (ValueError, f"line {set(frozenset({0, p, 2}))} has out-of-range points"))
            for p in (-1, 3)]),
    *[pytest.param(build, line, (TypeError, f"line {line!r} is not an iterable of points"),
                   id=f"{name}-line-{line}") for line in (5, None) for name, build in (
        ("from_lines", lambda line: IncidenceStructure.from_lines(3, [[0, 1], line])),
        ("constructor", lambda line: IncidenceStructure(3, [line])))],
    *[pytest.param(build, bad, (TypeError, f"label 1 must be a str, got {kind}: {bad!r}"),
                   id=f"{name}-label-{kind}") for bad, kind in LABELS for name, build in (
        ("from_lines", lambda bad: IncidenceStructure.from_lines(3, [[0, 1, 2]], ["a", bad, "c"])),
        ("constructor", lambda bad: IncidenceStructure(3, [[0, 1, 2]], labels=["a", bad, "c"])))],
    *_rows("points_of", points_of, "subset must be an int mask",
           [(-1, (ValueError, "mask -1 is negative"))]),
    *_mask("is_geometric_hyperplane", lambda m: is_geometric_hyperplane(DOILY, m), False),
    *_mask("deep_points_mask", lambda m: deep_points_mask(DOILY, m)),
    *_mask("classify_hyperplane", classify_hyperplane),
    *_mask("apply_duad_permutation-mask", lambda m: apply_duad_permutation(m, {i: i for i in S})),
    *_mask("VeldkampLine", lambda m: VeldkampLine(DOILY, (m, *_line_members()))),
    *_s("ovoid", ovoid, lambda i: f"ovoid label must be in 1..6: {i}"),
    *_s("perp_set", lambda i: perp_set(i, 2),
        lambda i: f"perp-set labels must be in 1..6: {i}, 2"),
    *_s("grid", lambda i: grid(i, 2, 3),
        lambda i: f"grid needs three distinct labels in 1..6: {i}, 2, 3"),
    *_s("apply_duad_permutation-key",
        lambda i: apply_duad_permutation(1, _identity_with(S, i, key=True)),
        lambda i: f"{_identity_with(S, i, key=True)!r} is not a permutation of {{1,...,6}}"),
    *_s("apply_duad_permutation-value",
        lambda i: apply_duad_permutation(1, _identity_with(S, i, key=False)),
        lambda i: f"{_identity_with(S, i, key=False)!r} is not a permutation of {{1,...,6}}"),
    *_coordinates("SymplecticForm.evaluate-first", lambda x: SYMPLECTIC.evaluate(x, 2)),
    *_coordinates("SymplecticForm.evaluate-second", lambda x: SYMPLECTIC.evaluate(2, x)),
    *_coordinates("QuadraticForm.evaluate", hyperbolic_form(6).evaluate),
    *_coordinates("BilinearForm.evaluate-first", lambda x: GRAM.evaluate(x, 2)),
    *_coordinates("BilinearForm.evaluate-second", lambda x: GRAM.evaluate(2, x)),
    *_coordinates("coordinate_masks", lambda x: coordinate_masks([1, x], 6)),
    *_form_int("QuadraticForm-first", lambda i: QuadraticForm(3, [(i, 2)]), "monomial index",
               [(i, _monomial(i, 2)) for i in (-1, 3)]),
    *_form_int("QuadraticForm-second", lambda j: QuadraticForm(3, [(0, j)]), "monomial index",
               [(j, _monomial(0, j)) for j in (-1, 3)]),
    pytest.param(lambda m: QuadraticForm(2, [(0, 1), m]), (0, 1),
                 (ValueError, "monomial (0,1) is listed twice"), id="QuadraticForm-twice"),
    pytest.param(lambda m: QuadraticForm(3, [m]), (0, 1, 2),
                 (ValueError, "monomial (0, 1, 2) is not a pair of indices"),
                 id="QuadraticForm-triple"),
    pytest.param(lambda m: QuadraticForm(3, [m]), 5,
                 (TypeError, "monomial must be a pair of indices, got int: 5"),
                 id="QuadraticForm-int-monomial"),
    *_hyperplane("veldkamp_sum-first", lambda h: veldkamp_sum(h, ovoid(1)), "h1"),
    *_hyperplane("veldkamp_sum-second", lambda h: veldkamp_sum(ovoid(1), h), "h2"),
    *_hyperplane("sector_labels", sector_labels, "h"),
    *_hyperplane("sector_image", lambda h: sector_image(build_magic_line(), h), "h"),
    *[pytest.param(call, bad, (TypeError, f"line must be a VeldkampLine, got {kind}"),
                   id=f"{name}-{kind}")
      for bad, kind in ((3, "int"), (None, "NoneType"), (_line_members(), "tuple"))
      for name, call in (
          ("classify_veldkamp_line", classify_veldkamp_line),
          ("veldkamp_line_image", lambda line: veldkamp_line_image(build_magic_line(), line)),
          ("family_census", lambda line: family_census([line])))],
    *[pytest.param(call, bad, (TypeError, f"form must be a QuadraticForm, got {kind}"),
                   id=f"{name}-{kind}")
      for bad, kind in ((3, "int"), (None, "NoneType"), (GRAM, "BilinearForm"))
      for name, call in (("classify_form", classify_form), ("polarize", polarize))],
    *_form_int("BilinearForm", lambda b: BilinearForm(((0, b), (b, 0))), "gram entry (0,1)",
               [(b, (ValueError, f"gram entry (0,1) must be 0 or 1: {b}")) for b in (-1, 2)]),
    *_form_int("hyperbolic_form", hyperbolic_form, "hyperbolic form dimension",
               [(d, (ValueError, f"hyperbolic form needs a positive even dimension: {d}"))
                for d in (-1, 5)]),
    *_form_int("elliptic_form", elliptic_form, "elliptic form dimension",
               [(d, (ValueError, f"elliptic form needs an even dimension >= 4: {d}"))
                for d in (-1, 5)]),
    *_form_int("BinaryVector", lambda b: BinaryVector((b, 0)), "coordinate",
               [(b, (ValueError, f"coordinates must be 0 or 1: {(b, 0)!r}")) for b in (-1, 2)]),
    *_form_int("BinaryVector.from_int-value", lambda v: BinaryVector.from_int(v, 2),
               "vector value",
               [(v, (ValueError, f"value {v} out of range for dimension 2")) for v in (-1, 4)]),
    *_form_int("BinaryVector.from_int-dimension", lambda d: BinaryVector.from_int(0, d),
               "vector dimension", [(-1, (ValueError, "value 0 out of range for dimension -1"))]),
    *_rows("check_gq-s", lambda s: check_gq(DOILY, s, 2), "GQ order s must be an int",
           [(-1, False), (3, False)]),
    *_rows("check_gq-t", lambda t: check_gq(DOILY, 2, t), "GQ order t must be an int",
           [(-1, False), (3, False)]),
]


@pytest.mark.parametrize("call, bad, outcome", CASES)
def test_bad_input_fails_loudly_and_names_itself(call, bad, outcome):
    if outcome is False:
        assert call(bad) is False
        return
    exception, message = outcome
    with pytest.raises(exception, match=f"^{re.escape(message)}$"):
        call(bad)


def test_each_entry_point_still_takes_its_good_input():
    assert DOILY.label_of(1) == "13" and DOILY.degree(14) == 3 and collinear(DOILY, 0, 14)
    assert build_magic_line().sector_of(62) in {"core", "hyperbolic", "elliptic", "cone"}
    assert is_isomorphism(DOILY, DOILY, {p: p for p in range(15)})
    assert mask_of([2, 1]) == 6 and points_of(6) == (1, 2)
    assert IncidenceStructure.from_lines(3, [[0, 1, 2]]) == IncidenceStructure(
        3, [frozenset({0, 1, 2})])
    assert is_geometric_hyperplane(DOILY, ovoid(1).mask) and deep_points_mask(DOILY, 0) == 0
    assert classify_hyperplane(perp_set(1, 2).mask).name == "p_12"
    assert apply_duad_permutation(ovoid(1).mask, {1: 2, 2: 1, 3: 3, 4: 4, 5: 5, 6: 6}) == (
        ovoid(2).mask)
    assert VeldkampLine(DOILY, sorted((ovoid(1).mask, *_line_members()))).members[0] == (
        ovoid(1).mask)
    assert ovoid(6).name == "o_6" and grid(4, 5, 6).name == "g_123"
    assert SYMPLECTIC.evaluate(1, 2) == GRAM.evaluate(1, 2) == 1
    assert hyperbolic_form(6).evaluate(3) == 1 and coordinate_masks([1, 63], 6) == (1, 63)
    assert QuadraticForm(3, [(0, 2)]).evaluate(0b101) == 1
    assert QuadraticForm(2, [(0, 1), (1, 1)]).evaluate(3) == 0
    assert str(BinaryVector((1, 0))) == "10" and BinaryVector.from_int(2, 2).to_int() == 2
    assert BilinearForm(((0, 1), (1, 0))).radical() == ()
    assert elliptic_form(4).evaluate(0b11) == 1 and check_gq(DOILY, 2, 2)
    assert classify_form(elliptic_form(4)) == "elliptic" and polarize(hyperbolic_form(2)).dim == 2


def test_a_label_that_is_not_a_str_fails_before_the_veldkamp_builder():
    # two lines sharing two points: the builder names them by their labels
    with pytest.raises(TypeError, match=r"^label 0 must be a str, got int: 1$"):
        IncidenceStructure(4, [(0, 1, 2), (0, 1, 3)], labels=[1, 2, 3, 4])
    g = IncidenceStructure(4, [(0, 1, 2), (0, 1, 3)], labels=["1", "2", "3", "4"])
    with pytest.raises(ValueError, match=r"^lines \{1, 2, 3\} and \{1, 2, 4\} share two points"):
        build_veldkamp_space(g)


def test_a_gram_given_as_lists_is_stored_as_tuples():
    form = BilinearForm([[0, 1], [1, 0]])
    assert form.gram == ((0, 1), (1, 0)) == polarize(hyperbolic_form(2)).gram
    assert all(type(row) is tuple for row in form.gram)
