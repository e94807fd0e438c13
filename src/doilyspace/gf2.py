"""Exact arithmetic over GF(2): binary vectors, symplectic and quadratic forms.

Coordinate convention used throughout the package: coordinate x_k (1-based,
as written in the standard form equations) is stored at bit position k - 1.
Points are such int coordinate masks: the forms evaluate them, and
``zero_points`` and ``radical`` return them.  ``BinaryVector`` only spells
coordinates (``str`` gives x1...x6 as 0s and 1s, the W(5,2) labels).
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import cached_property
from itertools import combinations

HYPERBOLIC = "hyperbolic"
ELLIPTIC = "elliptic"
PARABOLIC = "parabolic"
DEGENERATE = "degenerate"

FORM_KINDS = (HYPERBOLIC, ELLIPTIC, PARABOLIC, DEGENERATE)

# projective zero counts of the non-degenerate forms, confirmed by the
# exhaustive enumerations in the test suite
_NONDEGENERATE_ZEROS = {
    4: {9: HYPERBOLIC, 5: ELLIPTIC},
    6: {35: HYPERBOLIC, 27: ELLIPTIC},
}
_PARABOLIC_ZEROS = {3: 3, 5: 15}


class BinaryVector:
    """Fixed-length bit vector; addition is bitwise xor (^)."""

    def __init__(self, bits: tuple[int, ...]) -> None:
        if not bits:
            raise ValueError("vector must have at least one coordinate")
        if any(b not in (0, 1) for b in bits):
            raise ValueError(f"coordinates must be 0 or 1: {bits!r}")
        self.bits = bits

    @classmethod
    def from_int(cls, value: int, dim: int) -> BinaryVector:
        """Vector whose k-th coordinate is bit k of ``value``."""
        if not 0 <= value < (1 << dim):
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
    if not isinstance(x, int):
        raise TypeError(f"coordinates must be an int mask, got {type(x).__name__}")
    if not 0 <= x < 1 << dim:
        raise ValueError(f"coordinate mask {x} out of range for dimension {dim}")
    return x


def projective_points(dim: int) -> tuple[BinaryVector, ...]:
    """The 2^dim - 1 nonzero vectors, one per projective point over GF(2)."""
    return tuple(BinaryVector.from_int(v, dim) for v in range(1, 1 << dim))


class SymplecticForm:
    """The standard alternating form pairing coordinates (1,2), (3,4), ..."""

    def __init__(self, dim: int) -> None:
        if dim < 2 or dim % 2:
            raise ValueError(f"symplectic dimension must be a positive even integer: {dim}")
        self.dim = dim

    def evaluate(self, x: int, y: int) -> int:
        """theta(x, y) = popcount(x & swap_pairs(y)) mod 2, where swap_pairs
        exchanges the coordinates of each pair (x1,x2), (x3,x4), ..."""
        x = _coordinates(x, self.dim)
        y = _coordinates(y, self.dim)
        evens = (1 << self.dim) // 3  # the bits 0, 2, 4, ... below dim
        return (x & ((y & evens) << 1 | (y >> 1) & evens)).bit_count() & 1

    def gram(self) -> tuple[tuple[int, ...], ...]:
        rows = []
        for i in range(self.dim):
            partner = i + 1 if i % 2 == 0 else i - 1
            rows.append(tuple(1 if j == partner else 0 for j in range(self.dim)))
        return tuple(rows)


class QuadraticForm:
    """Sum of monomials x_i x_j over GF(2), indexed by 0-based positions i <= j.

    Two forms are equal when they have the same dimension and monomials."""

    def __init__(self, dim: int, monomials: Iterable[tuple[int, int]]) -> None:
        self.dim = dim
        self.monomials = frozenset(tuple(m) for m in monomials)
        for i, j in self.monomials:
            if not (0 <= i <= j < dim):
                raise ValueError(f"monomial ({i},{j}) out of range for dimension {dim}")

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
        return tuple(v for v in range(1, 1 << self.dim) if self.evaluate(v) == 0)

    def __add__(self, other: QuadraticForm) -> QuadraticForm:
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return QuadraticForm(self.dim, self.monomials ^ other.monomials)

    @property
    def kind(self) -> str:
        return classify_form(self)


class BilinearForm:
    """Symmetric bilinear form given by its Gram matrix over GF(2)."""

    def __init__(self, gram: tuple[tuple[int, ...], ...]) -> None:
        self.gram = gram

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
        """Nonzero coordinate masks orthogonal to the whole space, by exhaustion."""
        return tuple(v for v in range(1, 1 << self.dim)
                     if all(self.evaluate(v, 1 << j) == 0 for j in range(self.dim)))

    def is_alternating(self) -> bool:
        if any(self.gram[i][i] for i in range(self.dim)):
            return False
        return all(self.gram[i][j] == self.gram[j][i]
                   for i, j in combinations(range(self.dim), 2))


def polarize(form: QuadraticForm) -> BilinearForm:
    """The bilinear form B(x,y) = Q(x+y) + Q(x) + Q(y)."""
    dim = form.dim
    vals = [form.evaluate(1 << k) for k in range(dim)]
    return BilinearForm(tuple(
        tuple(0 if i == j else form.evaluate(1 << i | 1 << j) ^ vals[i] ^ vals[j]
              for j in range(dim))
        for i in range(dim)))


def classify_form(form: QuadraticForm) -> str:
    """Classify a form by counting its projective zeros exhaustively.

    Even dimension with non-degenerate polarization: hyperbolic or elliptic
    by zero count.  Odd dimension: parabolic when the polarized form has a
    one-dimensional radical on which the form does not vanish (the nucleus
    direction) and the zero count matches; anything else is degenerate.
    """
    if form.dim not in (4, 5, 6):
        raise ValueError(f"unsupported dimension for classification: {form.dim}")
    zeros = len(form.zero_points())
    radical = polarize(form).radical()
    if form.dim % 2 == 0:
        if radical:
            return DEGENERATE
        kind = _NONDEGENERATE_ZEROS[form.dim].get(zeros)
        if kind is None:
            raise RuntimeError(
                f"non-degenerate form in dimension {form.dim} with {zeros} zeros")
        return kind
    if (len(radical) == 1 and form.evaluate(radical[0]) == 1
            and zeros == _PARABOLIC_ZEROS[form.dim]):
        return PARABOLIC
    return DEGENERATE


def standard_symplectic(dim: int) -> SymplecticForm:
    return SymplecticForm(dim)


def hyperbolic_form(dim: int) -> QuadraticForm:
    """x1x2 + x3x4 + ... on an even number of coordinates."""
    if dim < 2 or dim % 2:
        raise ValueError(f"hyperbolic form needs a positive even dimension: {dim}")
    return QuadraticForm(dim, frozenset((k, k + 1) for k in range(0, dim, 2)))


def elliptic_form(dim: int) -> QuadraticForm:
    """f(x1,x2) + x3x4 + ... with f = x1^2 + x1x2 + x2^2, irreducible over GF(2)."""
    if dim < 4 or dim % 2:
        raise ValueError(f"elliptic form needs an even dimension >= 4: {dim}")
    monomials = {(0, 0), (0, 1), (1, 1)}
    monomials.update((k, k + 1) for k in range(2, dim, 2))
    return QuadraticForm(dim, frozenset(monomials))


def parabolic_form(dim: int) -> QuadraticForm:
    """x1x2 + ... + x_{2N-1}x_{2N} + x_{2N+1}^2 on an odd number of coordinates."""
    if dim < 3 or dim % 2 == 0:
        raise ValueError(f"parabolic form needs an odd dimension >= 3: {dim}")
    monomials = {(k, k + 1) for k in range(0, dim - 1, 2)}
    monomials.add((dim - 1, dim - 1))
    return QuadraticForm(dim, frozenset(monomials))
