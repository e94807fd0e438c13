"""Tests for GF(2) vectors, symplectic and quadratic forms."""

import re

import pytest

from doilyspace.gf2 import (
    DEGENERATE,
    ELLIPTIC,
    HYPERBOLIC,
    PARABOLIC,
    BilinearForm,
    BinaryVector,
    QuadraticForm,
    SymplecticForm,
    classify_form,
    coordinate_masks,
    elliptic_form,
    hyperbolic_form,
    polarize,
    projective_points,
)

# x1x2 + x3x4 + x5^2, the parabolic quadric of PG(4,2)
PARABOLIC5 = QuadraticForm(5, {(0, 1), (2, 3), (4, 4)})


def alternating(gram):
    """Zero diagonal and symmetric: the Gram matrix of an alternating form."""
    return all(gram[i][i] == 0 for i in range(len(gram))) and gram == tuple(zip(*gram))


def bits(x, dim):
    """The coordinate tuple (x1, ..., x_dim) of a mask holding x_k at bit k - 1."""
    return BinaryVector.from_int(x, dim).bits


def test_vector_is_its_own_inverse():
    for v in projective_points(4):
        assert (v ^ v).to_int() == 0


def test_vector_validation():
    with pytest.raises(ValueError):
        BinaryVector((0, 2))
    with pytest.raises(ValueError):
        BinaryVector(())
    with pytest.raises(ValueError):
        BinaryVector.from_int(1, 6) ^ BinaryVector.from_int(1, 4)


def test_from_int_roundtrip():
    for v in range(64):
        assert BinaryVector.from_int(v, 6).to_int() == v
    assert len(projective_points(6)) == 63


def test_symplectic_examples():
    theta = SymplecticForm(6)
    assert theta.evaluate(0b1, 0b10) == 1
    assert theta.evaluate(0b1, 0b100) == 0
    assert theta.evaluate(0b111111, 0b111111) == 0


def test_symplectic_alternating_and_nondegenerate():
    theta = SymplecticForm(6)
    points = range(1, 64)
    for x in points:
        assert theta.evaluate(x, x) == 0
        assert any(theta.evaluate(x, y) == 1 for y in points)


def test_symplectic_symmetric_over_gf2():
    theta = SymplecticForm(4)
    points = range(1, 16)
    for x in points:
        for y in points:
            assert theta.evaluate(x, y) == theta.evaluate(y, x)


def test_symplectic_errors():
    with pytest.raises(ValueError):
        SymplecticForm(5)
    with pytest.raises(ValueError):
        SymplecticForm(4).evaluate(1 << 4, 1)


def test_symplectic_rejects_a_dimension_that_is_not_an_int():
    for dim in (4.0, True):
        message = f"^symplectic dimension must be a positive even integer: {re.escape(repr(dim))}$"
        with pytest.raises(ValueError, match=message):
            SymplecticForm(dim)


def test_evaluate_is_the_checked_theta():
    # evaluate checks its masks and then computes theta itself: both agree
    # with the Gram matrix on every pair
    form = SymplecticForm(6)
    gram = polarize(hyperbolic_form(6))
    for x in range(64):
        for y in range(64):
            assert form.theta(x, y) == form.evaluate(x, y) == gram.evaluate(x, y)


def test_coordinate_masks_checks_each_mask():
    assert coordinate_masks(range(1, 16), 4) == tuple(range(1, 16))
    with pytest.raises(ValueError, match="^coordinate mask 16 out of range for dimension 4$"):
        coordinate_masks([1, 16], 4)
    with pytest.raises(ValueError, match="^coordinate mask -1 out of range"):
        coordinate_masks([-1], 4)
    with pytest.raises(TypeError, match="^coordinates must be an int mask, got str$"):
        coordinate_masks(["1"], 4)


def test_quad_eval_examples():
    q = hyperbolic_form(6)
    assert q.evaluate(0b1) == 0
    assert q.evaluate(0b11) == 1
    # f(1,1) = 1 + 1 + 1 = 1 for the irreducible f on the first two coordinates
    assert elliptic_form(6).evaluate(0b11) == 1


def test_quad_errors():
    with pytest.raises(ValueError):
        hyperbolic_form(4).evaluate(1 << 4)
    with pytest.raises(ValueError):
        QuadraticForm(4, {(2, 1)})
    with pytest.raises(ValueError):
        QuadraticForm(4, {(0, 4)})


def test_quad_rejects_a_bad_dimension():
    for dim in (-1, 0):
        with pytest.raises(ValueError, match=rf"^dimension {dim} is not a positive int$"):
            QuadraticForm(dim, [])
    with pytest.raises(ValueError, match=r"^dimension 2\.0 is not a positive int$"):
        QuadraticForm(2.0, [])


def test_bilinear_rejects_a_ragged_gram():
    with pytest.raises(ValueError, match=r"^gram row 1 has 3 entries, expected 2$"):
        BilinearForm(((0, 1), (1, 0, 1)))
    with pytest.raises(ValueError, match=r"^gram row 0 has 1 entries, expected 2$"):
        BilinearForm(((0,), (1, 0)))


def test_bilinear_rejects_an_entry_other_than_0_or_1():
    with pytest.raises(ValueError, match=r"^gram entry \(0,1\) must be 0 or 1: 2$"):
        BilinearForm(((0, 2), (2, 0)))
    with pytest.raises(ValueError, match=r"^gram entry \(1,1\) must be 0 or 1: -1$"):
        BilinearForm(((0, 1), (1, -1)))


def test_polarize_builds_valid_grams():
    for q in (hyperbolic_form(4), elliptic_form(6), PARABOLIC5,
              QuadraticForm(3, {(0, 0), (1, 2)})):
        b = polarize(q)
        assert len(b.gram) == q.dim and all(len(row) == q.dim for row in b.gram)
        assert alternating(b.gram)


def test_quad_vanishes_on_zero():
    for q in (hyperbolic_form(6), elliptic_form(6), PARABOLIC5):
        assert q.evaluate(0) == 0


def test_polarize_identity_exhaustive():
    # oracle: the defining identity B(x,y) = Q(x+y)+Q(x)+Q(y) on every pair
    for q in (hyperbolic_form(6), elliptic_form(6)):
        b = polarize(q)
        points = range(1, 64)
        for x in points:
            for y in points:
                assert b.evaluate(x, y) == (
                    q.evaluate(x ^ y) ^ q.evaluate(x) ^ q.evaluate(y))


def test_polarize_standard_forms_give_the_symplectic_form():
    theta = SymplecticForm(6).gram()
    assert polarize(hyperbolic_form(6)).gram == theta
    assert polarize(elliptic_form(6)).gram == theta
    assert alternating(theta)


def test_polarize_parabolic_radical_is_the_nucleus_direction():
    q = PARABOLIC5
    rad = polarize(q).radical()
    assert rad == (1 << 4,)
    assert q.evaluate(rad[0]) == 1


def test_polarize_rank_deficient_radical():
    # x1x2 + x3x4 in dimension 6: the radical is spanned by e5 and e6
    q = QuadraticForm(6, {(0, 1), (2, 3)})
    rad = set(polarize(q).radical())
    assert rad == {16, 32, 48}


def ref_radical(b):
    """The radical by its definition: the v with B(v, e_j) = 0 for every j."""
    return tuple(v for v in range(1, 1 << b.dim)
                 if all(b.evaluate(v, 1 << j) == 0 for j in range(b.dim)))


def grams_3x3():
    """All 512 3x3 matrices over GF(2), entry (i, j) at bit 3i + j."""
    return [tuple(tuple(entries >> (3 * i + j) & 1 for j in range(3)) for i in range(3))
            for entries in range(1 << 9)]


def is_symmetric(gram):
    return all(gram[i][j] == gram[j][i] for i in range(3) for j in range(3))


def test_radical_matches_its_definition_on_every_3x3_gram():
    # every symmetric one: BilinearForm rejects the other 448
    symmetric = [gram for gram in grams_3x3() if is_symmetric(gram)]
    assert len(symmetric) == 64
    for gram in symmetric:
        b = BilinearForm(gram)
        assert b.radical() == ref_radical(b)


def test_bilinear_rejects_a_non_symmetric_gram():
    with pytest.raises(ValueError, match=r"^gram is not symmetric: \(0,1\) and \(1,0\) differ$"):
        BilinearForm(((0, 1), (0, 0)))
    with pytest.raises(ValueError, match=r"^gram is not symmetric: \(1,2\) and \(2,1\) differ$"):
        BilinearForm(((1, 0, 0), (0, 0, 1), (0, 0, 1)))
    for gram in grams_3x3():
        if not is_symmetric(gram):
            with pytest.raises(ValueError, match=r"^gram is not symmetric"):
                BilinearForm(gram)


def test_polarization_of_every_form_of_dimension_4():
    monomials = [(i, j) for i in range(4) for j in range(i, 4)]
    for chosen in range(1 << len(monomials)):
        q = QuadraticForm(4, {m for k, m in enumerate(monomials) if chosen >> k & 1})
        b = polarize(q)
        assert alternating(b.gram)
        assert all(b.evaluate(x, y) == q.evaluate(x ^ y) ^ q.evaluate(x) ^ q.evaluate(y)
                   for x in range(16) for y in range(x + 1, 16))
        assert b.radical() == ref_radical(b)


def test_classify_standard_forms():
    assert len(hyperbolic_form(6).zero_points()) == 35
    assert classify_form(hyperbolic_form(6)) == HYPERBOLIC
    assert len(elliptic_form(6).zero_points()) == 27
    assert classify_form(elliptic_form(6)) == ELLIPTIC
    assert len(PARABOLIC5.zero_points()) == 15
    assert classify_form(PARABOLIC5) == PARABOLIC
    assert len(hyperbolic_form(4).zero_points()) == 9
    assert classify_form(hyperbolic_form(4)) == HYPERBOLIC
    assert len(elliptic_form(4).zero_points()) == 5
    assert classify_form(elliptic_form(4)) == ELLIPTIC


def test_classify_degenerate_forms():
    zero = QuadraticForm(6, frozenset())
    assert len(zero.zero_points()) == 63
    assert classify_form(zero) == DEGENERATE
    assert classify_form(QuadraticForm(6, {(0, 1), (2, 3)})) == DEGENERATE
    # the double-hyperplane form x1^2 + x2^2 carries the cone's point set
    assert classify_form(QuadraticForm(6, {(0, 0), (1, 1)})) == DEGENERATE
    assert classify_form(QuadraticForm(5, {(0, 1), (2, 3)})) == DEGENERATE


def test_classify_unsupported_dimension():
    # the zero count scans 2^dim vectors, so classification stops at dimension 10
    with pytest.raises(ValueError, match="^unsupported dimension for classification: 11$"):
        classify_form(QuadraticForm(11, {(0, 1)}))


def standard_form(dim, kind):
    """x1x2 + x3x4 + ... on dim coordinates, plus x1^2 + x2^2 for ELLIPTIC
    and x_dim^2 when dim is odd: the standard form of each kind."""
    monomials = {(k, k + 1) for k in range(0, dim - 1, 2)}
    if kind == ELLIPTIC:
        monomials |= {(0, 0), (1, 1)}
    if dim % 2:
        monomials.add((dim - 1, dim - 1))
    return QuadraticForm(dim, monomials)


def reference_zero_count(q):
    """The projective zeros of q, each monomial of each vector read on its own."""
    return sum(1 for v in range(1, 1 << q.dim)
               if sum(v >> i & v >> j & 1 for i, j in q.monomials) % 2 == 0)


# the zero counts gf2 once kept in tables for dimensions 3 to 6
TABLED_ZEROS = {(4, HYPERBOLIC): 9, (4, ELLIPTIC): 5, (6, HYPERBOLIC): 35,
                (6, ELLIPTIC): 27, (3, PARABOLIC): 3, (5, PARABOLIC): 15}


@pytest.mark.parametrize("dim", range(1, 11))
def test_classify_reads_the_closed_form_zero_counts(dim):
    m = dim // 2
    closed = ({PARABOLIC: 2 ** (2 * m) - 1} if dim % 2 else
              {HYPERBOLIC: 2 ** (2 * m - 1) - 1 + 2 ** (m - 1),
               ELLIPTIC: 2 ** (2 * m - 1) - 1 - 2 ** (m - 1)})
    for kind, zeros in closed.items():
        q = standard_form(dim, kind)
        assert reference_zero_count(q) == len(q.zero_points()) == zeros
        assert TABLED_ZEROS.get((dim, kind), zeros) == zeros
        assert classify_form(q) == kind
    if dim % 2 == 0 and dim >= 4:
        assert hyperbolic_form(dim) == standard_form(dim, HYPERBOLIC)
        assert elliptic_form(dim) == standard_form(dim, ELLIPTIC)
    if dim >= 2:  # x1x2 dropped puts e1 and e2 in the radical
        dropped = QuadraticForm(dim, standard_form(dim, HYPERBOLIC).monomials - {(0, 1)})
        assert classify_form(dropped) == DEGENERATE


def test_classify_names_a_non_degenerate_count_off_both_closed_forms(monkeypatch):
    q = hyperbolic_form(8)
    monkeypatch.setattr(q, "zero_points", lambda: (1,))
    with pytest.raises(RuntimeError,
                       match="^non-degenerate form in dimension 8 with 1 zeros$"):
        classify_form(q)


def test_classify_invariant_under_coordinate_permutation():
    variants = [
        {(0, 1), (2, 3), (4, 5)},
        {(0, 2), (1, 3), (4, 5)},
        {(0, 3), (1, 2), (4, 5)},
        {(1, 2), (3, 4), (0, 5)},
    ]
    for monomials in variants:
        q = QuadraticForm(6, frozenset(monomials))
        assert len(q.zero_points()) == 35
        assert classify_form(q) == HYPERBOLIC


def test_form_sum_is_gf2_sum_of_monomials():
    cone = hyperbolic_form(6) + elliptic_form(6)
    assert cone.monomials == frozenset({(0, 0), (1, 1)})
    assert classify_form(cone) == DEGENERATE


def test_form_sum_takes_a_form_of_its_dimension_only():
    with pytest.raises(ValueError, match="^dimension mismatch: 6 vs 4$"):
        hyperbolic_form(6) + hyperbolic_form(4)
    assert hyperbolic_form(6).__add__(1) is NotImplemented
    with pytest.raises(TypeError, match="unsupported operand type"):
        hyperbolic_form(6) + 1


# Reference evaluations over the coordinate tuple, as the forms computed
# them before they evaluated int coordinate masks.

def ref_symplectic(x: tuple[int, ...], y: tuple[int, ...]) -> int:
    acc = 0
    for k in range(0, len(x), 2):
        acc ^= (x[k] & y[k + 1]) ^ (x[k + 1] & y[k])
    return acc


def ref_quadratic(form: QuadraticForm, x: tuple[int, ...]) -> int:
    acc = 0
    for i, j in form.monomials:
        acc ^= x[i] & x[j]
    return acc


@pytest.mark.parametrize("form", [
    hyperbolic_form(6), elliptic_form(6), hyperbolic_form(6) + elliptic_form(6),
    PARABOLIC5, hyperbolic_form(4), elliptic_form(4),
], ids=["hyperbolic", "elliptic", "cone", "parabolic", "hyperbolic4", "elliptic4"])
def test_quadratic_int_evaluation_is_exhaustively_the_vector_one(form):
    for v in range(1, 1 << form.dim):
        assert form.evaluate(v) == ref_quadratic(form, bits(v, form.dim))


@pytest.mark.parametrize("dim", [2, 4, 6])
def test_symplectic_int_evaluation_is_exhaustively_the_vector_one(dim):
    theta = SymplecticForm(dim)
    for x in range(1, 1 << dim):
        for y in range(1, 1 << dim):
            assert theta.evaluate(x, y) == ref_symplectic(bits(x, dim), bits(y, dim))


def test_bilinear_int_evaluation_matches_the_vector_one():
    b = polarize(QuadraticForm(6, {(0, 1), (2, 3), (1, 4), (5, 5)}))
    for x in range(64):
        for y in range(64):
            bx, by = bits(x, 6), bits(y, 6)
            expected = sum(bx[i] & b.gram[i][j] & by[j]
                           for i in range(6) for j in range(6)) & 1
            assert b.evaluate(x, y) == expected


def test_int_coordinates_out_of_range_are_rejected():
    with pytest.raises(ValueError, match="coordinate mask 64 out of range for dimension 6"):
        hyperbolic_form(6).evaluate(64)
    with pytest.raises(ValueError, match="coordinate mask -1 out of range"):
        SymplecticForm(6).evaluate(1, -1)
    with pytest.raises(ValueError, match="coordinate mask 16 out of range for dimension 4"):
        polarize(hyperbolic_form(4)).evaluate(1, 16)


def test_forms_take_int_masks_only():
    vector = BinaryVector.from_int(3, 6)
    message = "^coordinates must be an int mask, got BinaryVector$"
    with pytest.raises(TypeError, match=message):
        hyperbolic_form(6).evaluate(vector)
    with pytest.raises(TypeError, match=message):
        SymplecticForm(6).evaluate(3, vector)
    with pytest.raises(TypeError, match=message):
        polarize(hyperbolic_form(6)).evaluate(vector, 3)
    with pytest.raises(TypeError, match="^coordinates must be an int mask, got tuple$"):
        hyperbolic_form(6).evaluate(vector.bits)
