"""Exact arithmetic over GF(2): binary vectors, symplectic and quadratic forms.

Coordinate convention used throughout the package: coordinate x_k (1-based,
as written in the standard form equations) is stored at bit position k - 1.
Points are such int coordinate masks: the forms evaluate them, and
``zero_points`` and ``radical`` return them.  ``BinaryVector`` only spells
coordinates for ``projective_points``; ``magicline.build_w52`` spells W(5,2)'s labels.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import cached_property

HYPERBOLIC = "hyperbolic"
ELLIPTIC = "elliptic"
PARABOLIC = "parabolic"
DEGENERATE = "degenerate"


class BinaryVector:
    """Fixed-length bit vector; addition is bitwise xor (^)."""

    def __init__(self, bits: tuple[int, ...]) -> None:
        if not bits:
            raise ValueError("vector must have at least one coordinate")
        if any(_int(b, "coordinate") not in (0, 1) for b in bits):
            raise ValueError(f"coordinates must be 0 or 1: {bits!r}")
        self.bits = bits

    @classmethod
    def from_int(cls, value: int, dim: int) -> BinaryVector:
        """Vector whose k-th coordinate is bit k of ``value``."""
        if _int(dim, "vector dimension") < 0 or not 0 <= _int(value, "vector value") < 1 << dim:
            raise ValueError(f"value {value} out of range for dimension {dim}")
        return cls(tuple((value >> k) & 1 for k in range(dim)))

    def to_int(self) -> int:
        return sum(b << k for k, b in enumerate(self.bits))

    @property
    def dim(self) -> int:
        return len(self.bits)

    def __xor__(self, other: BinaryVector) -> BinaryVector:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return BinaryVector(tuple(a ^ b for a, b in zip(self.bits, other.bits)))

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


def _coordinates(x: int, dim: int) -> int:
    """x itself if it is a coordinate mask (x_k at bit k - 1) of a dim-vector."""
    if type(x) is not int:
        raise TypeError(f"coordinates must be an int mask, got {type(x).__name__}")
    if not 0 <= x < 1 << dim:
        raise ValueError(f"coordinate mask {x} out of range for dimension {dim}")
    return x


def _int(value: int, what: str) -> int:
    """value itself if it is an int, not a bool; else TypeError naming what and the value."""
    if type(value) is not int:
        raise TypeError(f"{what} must be an int, got {type(value).__name__}: {value!r}")
    return value


def coordinate_masks(masks: Iterable[int], dim: int) -> tuple[int, ...]:
    """The masks, each checked to be a coordinate mask of a dim-vector."""
    return tuple(_coordinates(x, dim) for x in masks)


def projective_points(dim: int) -> tuple[BinaryVector, ...]:
    """The 2^dim - 1 nonzero vectors, one per projective point over GF(2)."""
    return tuple(BinaryVector.from_int(v, dim) for v in range(1, 1 << dim))


class SymplecticForm:
    """The standard alternating form pairing coordinates (1,2), (3,4), ..."""

    def __init__(self, dim: int) -> None:
        if type(dim) is not int or dim < 2 or dim % 2:
            raise ValueError(f"symplectic dimension must be a positive even integer: {dim!r}")
        self.dim = dim

    def evaluate(self, x: int, y: int) -> int:
        """theta(x, y) for two coordinate masks, each checked to be in range."""
        return self.theta(_coordinates(x, self.dim), _coordinates(y, self.dim))

    def theta(self, x: int, y: int) -> int:
        """theta(x, y) = popcount(x & swap_pairs(y)) mod 2, where swap_pairs
        exchanges the coordinates of each pair (x1,x2), (x3,x4), ...  The
        masks are not checked: pass masks checked once by coordinate_masks,
        or call evaluate."""
        evens = (1 << self.dim) // 3  # the bits 0, 2, 4, ... below dim
        return (x & ((y & evens) << 1 | (y >> 1) & evens)).bit_count() & 1

    def gram(self) -> tuple[tuple[int, ...], ...]:
        # coordinate i pairs with its partner i ^ 1: (0, 1), (2, 3), ...
        return tuple(tuple(int(j == i ^ 1) for j in range(self.dim)) for i in range(self.dim))


class QuadraticForm:
    """Sum of monomials x_i x_j over GF(2), indexed by 0-based positions i <= j.

    Two forms are equal when they have the same dimension and monomials."""

    def __init__(self, dim: int, monomials: Iterable[tuple[int, int]]) -> None:
        if type(dim) is not int or dim < 1:
            raise ValueError(f"dimension {dim!r} is not a positive int")
        self.dim = dim
        pairs = []
        for m in monomials:
            if not isinstance(m, (tuple, list)):
                raise TypeError(
                    f"monomial must be a pair of indices, got {type(m).__name__}: {m!r}")
            if len(m) != 2:
                raise ValueError(f"monomial {m!r} is not a pair of indices")
            pairs.append((_int(m[0], "monomial index"), _int(m[1], "monomial index")))
        for k, (i, j) in enumerate(pairs):
            if not (0 <= i <= j < dim):
                raise ValueError(f"monomial ({i},{j}) out of range for dimension {dim}")
            if pairs.index((i, j)) < k:
                raise ValueError(f"monomial ({i},{j}) is listed twice")
        self.monomials = frozenset(pairs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuadraticForm):
            return NotImplemented
        return self.dim == other.dim and self.monomials == other.monomials

    def __hash__(self) -> int:
        return hash((self.dim, self.monomials))

    @cached_property
    def _rows(self) -> tuple[int, ...]:
        """Row i: the mask of the j with x_i x_j a monomial."""
        rows = [0] * self.dim
        for i, j in self.monomials:
            rows[i] |= 1 << j
        return tuple(rows)

    def evaluate(self, x: int) -> int:
        """Q(x): the parity of the monomials x_i x_j that x sets."""
        x = _coordinates(x, self.dim)
        acc = 0
        for i, row in enumerate(self._rows):
            if x >> i & 1:
                acc += (x & row).bit_count()
        return acc & 1

    def zero_points(self) -> tuple[int, ...]:
        """The coordinate masks of the projective points on the quadric Q(x) = 0."""
        return self._zero_points

    @cached_property
    def _zero_points(self) -> tuple[int, ...]:
        return tuple(v for v in range(1, 1 << self.dim) if self.evaluate(v) == 0)

    @cached_property
    def _polarization(self) -> BilinearForm:
        vals = [self.evaluate(1 << k) for k in range(self.dim)]
        return BilinearForm(tuple(
            tuple(0 if i == j else self.evaluate(1 << i | 1 << j) ^ vals[i] ^ vals[j]
                  for j in range(self.dim))
            for i in range(self.dim)))

    def __add__(self, other: QuadraticForm) -> QuadraticForm:
        if not isinstance(other, QuadraticForm):
            return NotImplemented
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return QuadraticForm(self.dim, self.monomials ^ other.monomials)


class BilinearForm:
    """Symmetric bilinear form given by its Gram matrix over GF(2).  The rows
    are stored as tuples, whatever sequences they came in, so equal matrices
    compare equal."""

    def __init__(self, gram: tuple[tuple[int, ...], ...]) -> None:
        for i, row in enumerate(gram):
            if len(row) != len(gram):
                raise ValueError(f"gram row {i} has {len(row)} entries, expected {len(gram)}")
            for j, b in enumerate(row):
                if _int(b, f"gram entry ({i},{j})") not in (0, 1):
                    raise ValueError(f"gram entry ({i},{j}) must be 0 or 1: {b!r}")
                if j < i and b != gram[j][i]:
                    raise ValueError(f"gram is not symmetric: ({j},{i}) and ({i},{j}) differ")
        self.gram = tuple(map(tuple, gram))

    @property
    def dim(self) -> int:
        return len(self.gram)

    @cached_property
    def _rows(self) -> tuple[int, ...]:
        return tuple(sum(b << j for j, b in enumerate(row)) for row in self.gram)

    def evaluate(self, x: int, y: int) -> int:
        x = _coordinates(x, self.dim)
        y = _coordinates(y, self.dim)
        acc = 0
        for i, row in enumerate(self._rows):
            if x >> i & 1:
                acc += (row & y).bit_count()
        return acc & 1

    def radical(self) -> tuple[int, ...]:
        """Nonzero coordinate masks v with B(v, y) = 0 for every y, by exhaustion:
        v^T G = 0, so the Gram rows that v selects xor to 0."""
        sums = [0]  # sums[v]: the xor of the rows v selects
        for row in self._rows:
            sums += [s ^ row for s in sums]
        return tuple(v for v in range(1, len(sums)) if not sums[v])


def _quadratic(form: QuadraticForm) -> QuadraticForm:
    """form itself if it is a QuadraticForm; else TypeError naming its type."""
    if not isinstance(form, QuadraticForm):
        raise TypeError(f"form must be a QuadraticForm, got {type(form).__name__}")
    return form


def polarize(form: QuadraticForm) -> BilinearForm:
    """The bilinear form B(x,y) = Q(x+y) + Q(x) + Q(y), computed once per form."""
    return _quadratic(form)._polarization


def classify_form(form: QuadraticForm) -> str:
    """Classify a form by counting its projective zeros exhaustively, which
    scans 2^dim vectors: dimensions above 10 raise ValueError.

    Even dimension 2m with non-degenerate polarization: hyperbolic with
    2^(2m-1) - 1 + 2^(m-1) zeros, elliptic with 2^(2m-1) - 1 - 2^(m-1).
    Odd dimension 2m+1: parabolic when the polarized form has a
    one-dimensional radical on which the form does not vanish (the nucleus
    direction) and the form has 2^(2m) - 1 zeros; anything else is degenerate.
    """
    if _quadratic(form).dim > 10:
        raise ValueError(f"unsupported dimension for classification: {form.dim}")
    zeros = len(form.zero_points())
    radical = polarize(form).radical()
    m, odd = divmod(form.dim, 2)
    mean = (1 << form.dim - 1) - 1  # the parabolic count, and the mean of the other two
    if odd:
        parabolic = len(radical) == 1 and form.evaluate(radical[0]) == 1 and zeros == mean
        return PARABOLIC if parabolic else DEGENERATE
    if radical:
        return DEGENERATE
    kind = {1 << m - 1: HYPERBOLIC, -(1 << m - 1): ELLIPTIC}.get(zeros - mean)
    if kind is None:
        raise RuntimeError(f"non-degenerate form in dimension {form.dim} with {zeros} zeros")
    return kind


def hyperbolic_form(dim: int) -> QuadraticForm:
    """x1x2 + x3x4 + ... on an even number of coordinates."""
    if _int(dim, "hyperbolic form dimension") < 2 or dim % 2:
        raise ValueError(f"hyperbolic form needs a positive even dimension: {dim}")
    return QuadraticForm(dim, frozenset((k, k + 1) for k in range(0, dim, 2)))


def elliptic_form(dim: int) -> QuadraticForm:
    """f(x1,x2) + x3x4 + ... with f = x1^2 + x1x2 + x2^2, irreducible over GF(2)."""
    if _int(dim, "elliptic form dimension") < 4 or dim % 2:
        raise ValueError(f"elliptic form needs an even dimension >= 4: {dim}")
    monomials = {(0, 0), (0, 1), (1, 1)}
    monomials.update((k, k + 1) for k in range(2, dim, 2))
    return QuadraticForm(dim, frozenset(monomials))
