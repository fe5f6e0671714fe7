"""Matrix *-algebras over exact Gaussian rationals.

Each matrix entry is a Gaussian rational (a + b i)/d stored as three
Python ints in lowest terms (d > 0, gcd(a, b, d) = 1), so the kernels
below (products, elimination, containment) do integer arithmetic only and
equal entries have equal fields.  Algebras are spans of square matrices,
closed under product and conjugate transpose and containing the identity.
Bases are kept in reduced echelon form over the rational complex field, so
two algebras are equal exactly when their basis tuples are.  Outside input
is checked once: ``StarAlgebra(dim, basis, generators)`` requires the span
to be closed and to hold the generators, and the package's own builds are
unchecked.  Spectral operations (minimal projections, characters, the
subalgebra lattice) require the generators to be projections, which keeps
every computation inside the rationals.  An algebra forms its projection
table, all of Proj(A), and its subalgebra lattice C(A) at most once and
keeps them: the lattice, the atoms and ``ortho.verify_caf_iso`` read the
one table.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import (
    AssertionFailed,
    BadParameters,
    DimMismatch,
    GeneratorNotProjection,
    GroundMismatch,
    NotCommutative,
    NotTotal,
    ParseError,
    SizeLimit,
)
from .order import FinPoset, subset_table
from .partitions import (LATTICE_MAX, ORIENT_SUBALGEBRA, EqRel, _first_occurrence,
                         _linked_labels, partition_lattice)

#: ambient matrix size / algebra dimension guards
AMBIENT_MAX = 16
ALGEBRA_DIM_MAX = 64
#: digits above and below the bar of a parsed entry: Python's int-string limit
ENTRY_DIGITS_MAX = 4300
_ENTRY_BOUND = 10**ENTRY_DIGITS_MAX



def _ratio(value):
    """Numerator and positive denominator of an int, Fraction or other
    value that ``Fraction`` accepts."""
    if isinstance(value, int):
        return int(value), 1
    if not isinstance(value, Fraction):
        value = Fraction(value)
    return value.numerator, value.denominator


class GaussianRational:
    """Complex number with rational real and imaginary parts.

    Stored as (a + b i)/d with d > 0 and gcd(a, b, d) = 1, so zero is
    (0, 0, 1) and equality and hashing read the integer fields.  Instances
    are immutable: the kernels share entries such as ``GR_ZERO`` between
    matrices, so the fields are set only by the constructors.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        p, q = _ratio(re)
        r, s = _ratio(im)
        # p/q and r/s are in lowest terms, so over the lcm of q and s no
        # prime divides both numerators and the denominator
        d = q * s // gcd(q, s)
        _set_a(self, p * (d // q))
        _set_b(self, r * (d // s))
        _set_d(self, d)

    @staticmethod
    def _make(a, b, d):
        """Normalising constructor from ints, d != 0."""
        if not (a or b):
            return GR_ZERO
        g = gcd(a, b, d)
        if d < 0:
            g = -g
        if g != 1:
            a, b, d = a // g, b // g, d // g
        x = _new(GaussianRational)
        _set_a(x, a)
        _set_b(x, b)
        _set_d(x, d)
        return x

    def __setattr__(self, name, value):
        raise AttributeError(f"GaussianRational is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"GaussianRational is immutable: cannot delete {name!r}")

    @property
    def re(self):
        return Fraction(self.a, self.d)

    @property
    def im(self):
        return Fraction(self.b, self.d)

    def __add__(self, other):
        a, b, d = other.a, other.b, other.d
        if not (a or b):
            return self
        sa, sb, sd = self.a, self.b, self.d
        if not (sa or sb):
            return other
        if sd == d:
            return _make(sa + a, sb + b, d)
        return _make(sa * d + a * sd, sb * d + b * sd, sd * d)

    def __sub__(self, other):
        a, b, d = other.a, other.b, other.d
        if not (a or b):
            return self
        sa, sb, sd = self.a, self.b, self.d
        if sd == d:
            return _make(sa - a, sb - b, d)
        return _make(sa * d - a * sd, sb * d - b * sd, sd * d)

    def __mul__(self, other):
        a, b = self.a, self.b
        c, e = other.a, other.b
        if not (a or b) or not (c or e):
            return GR_ZERO
        return _make(a * c - b * e, a * e + b * c, self.d * other.d)

    def __truediv__(self, other):
        c, e = other.a, other.b
        norm = c * c + e * e
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        a, b, f = self.a, self.b, other.d
        return _make((a * c + b * e) * f, (b * c - a * e) * f, self.d * norm)

    def __neg__(self):
        return _exact(-self.a, -self.b, self.d)

    def conjugate(self):
        return _exact(self.a, -self.b, self.d)

    def is_zero(self):
        return not (self.a or self.b)

    def __eq__(self, other):
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __repr__(self):
        return f"GaussianRational(re={self.re!r}, im={self.im!r})"

    def __str__(self):
        if not self.b:
            return str(self.re)
        if not self.a:
            return f"{self.im} i"
        sign = "+" if self.b > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)} i"

    @classmethod
    def from_string(cls, text):
        """Parse ``a/b``, ``c/d i`` or ``a/b+c/d i`` (optionally spaced).  A
        part past ``ENTRY_DIGITS_MAX`` digits above or below its bar is refused,
        and so is an exponent past three times that, before it is expanded."""
        compact = text.replace(" ", "")
        if not compact:
            raise ParseError("empty Gaussian rational")
        re_text, im_text = compact, "0"
        if compact.endswith("i"):
            body = compact[:-1]
            # the sign separating the real part from the imaginary
            # coefficient is the last one neither at the front nor an
            # exponent's
            split = next(
                (k for k in range(len(body) - 1, 0, -1)
                 if body[k] in "+-" and body[k - 1] not in "eE"),
                0,
            )
            re_text, im_text = body[:split] or "0", body[split:]
            if im_text in ("", "+", "-"):
                im_text += "1"
        try:
            for part in (re_text, im_text):
                _, e, exponent = part.lower().rpartition("e")
                if e and abs(int(exponent)) > 3 * ENTRY_DIGITS_MAX:
                    raise ValueError(f"exponent {exponent} out of range")
            re_part, im_part = Fraction(re_text), Fraction(im_text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"cannot parse Gaussian rational {text!r}") from exc
        if max(map(abs, re_part.as_integer_ratio() + im_part.as_integer_ratio())) >= _ENTRY_BOUND:
            raise ParseError(f"a part of {text!r} exceeds {ENTRY_DIGITS_MAX} digits")
        return cls(re_part, im_part)


_new = object.__new__
_make = GaussianRational._make
# slot setters, the one way past the immutability guard
_set_a = GaussianRational.a.__set__
_set_b = GaussianRational.b.__set__
_set_d = GaussianRational.d.__set__


def _exact(a, b, d):
    """Constructor from fields already in normal form."""
    x = _new(GaussianRational)
    _set_a(x, a)
    _set_b(x, b)
    _set_d(x, d)
    return x


GR_ZERO = _exact(0, 0, 1)
GR_ONE = _exact(1, 0, 1)


def gr(value):
    """Coerce ints / Fractions / strings to GaussianRational; a ``bool``,
    though an ``int``, is refused like any other non-numeric entry."""
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return GaussianRational(value)
    if isinstance(value, str):
        return GaussianRational.from_string(value)
    raise ParseError(f"cannot coerce {value!r} to a Gaussian rational")


def _sub_mul(r, f, p):
    """r - f*p in one normalisation, on the integer fields."""
    fa, fb, pa, pb = f.a, f.b, p.a, p.b
    ta, tb, td = fa * pa - fb * pb, fa * pb + fb * pa, f.d * p.d
    rd = r.d
    if rd == td:
        return _make(r.a - ta, r.b - tb, td)
    return _make(r.a * td - ta * rd, r.b * td - tb * rd, rd * td)


def _check_size(dim):
    if dim < 1:
        raise DimMismatch("matrix must be square and nonempty")


class Matrix:
    """Square matrix of Gaussian rationals.

    ``Matrix(rows)`` coerces and checks outside input; kernel outputs are
    built by the unchecked ``Matrix._from_rows``.
    """

    __slots__ = ("rows", "dim")

    def __init__(self, rows):
        rows = tuple(tuple(gr(x) for x in row) for row in rows)
        dim = len(rows)
        if dim == 0 or any(len(row) != dim for row in rows):
            raise DimMismatch("matrix must be square and nonempty")
        self.rows = rows
        self.dim = dim

    @classmethod
    def _from_rows(cls, rows):
        """Unchecked constructor: a nonempty square tuple of tuples of
        GaussianRational, as the kernels below produce."""
        matrix = _new(cls)
        matrix.rows = rows
        matrix.dim = len(rows)
        return matrix

    @classmethod
    def identity(cls, dim):
        _check_size(dim)
        return cls._from_rows(
            tuple(tuple(GR_ONE if i == j else GR_ZERO for j in range(dim)) for i in range(dim))
        )

    @classmethod
    def zero(cls, dim):
        _check_size(dim)
        return cls._from_rows(((GR_ZERO,) * dim,) * dim)

    @classmethod
    def diag(cls, values):
        values = [gr(v) for v in values]
        dim = len(values)
        return cls([[values[i] if i == j else 0 for j in range(dim)] for i in range(dim)])

    @classmethod
    def unit(cls, dim, i, j):
        """Matrix unit with a single 1 in row i, column j."""
        return cls([[1 if (r, c) == (i, j) else 0 for c in range(dim)] for r in range(dim)])

    def __add__(self, other):
        self._match(other)
        return Matrix._from_rows(
            tuple(tuple(x + y for x, y in zip(left, right))
                  for left, right in zip(self.rows, other.rows))
        )

    def __sub__(self, other):
        self._match(other)
        return Matrix._from_rows(
            tuple(tuple(x - y for x, y in zip(left, right))
                  for left, right in zip(self.rows, other.rows))
        )

    def __mul__(self, other):
        if isinstance(other, Matrix):
            self._match(other)
            columns = [
                [(k, y.a, y.b, y.d) for k, y in enumerate(column) if y.a or y.b]
                for column in zip(*other.rows)
            ]
            out = []
            for left in self.rows:
                row = []
                for column in columns:
                    # accumulate over a running denominator; reduce once
                    num_a = num_b = 0
                    den = 1
                    for k, c, e, f in column:
                        x = left[k]
                        a, b = x.a, x.b
                        if not (a or b):
                            continue
                        ta, tb, td = a * c - b * e, a * e + b * c, x.d * f
                        if td == den:
                            num_a += ta
                            num_b += tb
                        else:
                            num_a = num_a * td + ta * den
                            num_b = num_b * td + tb * den
                            den *= td
                    row.append(_make(num_a, num_b, den))
                out.append(tuple(row))
            return Matrix._from_rows(tuple(out))
        scalar = gr(other)
        return Matrix._from_rows(tuple(tuple(x * scalar for x in row) for row in self.rows))

    __rmul__ = __mul__

    def adjoint(self):
        """Conjugate transpose."""
        return Matrix._from_rows(
            tuple(tuple(x.conjugate() for x in column) for column in zip(*self.rows))
        )

    def is_zero(self):
        return not any(x.a or x.b for row in self.rows for x in row)

    def is_projection(self):
        return self == self.adjoint() and self * self == self

    def commutes_with(self, other):
        return self * other == other * self

    def _match(self, other):
        if self.dim != other.dim:
            raise DimMismatch(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"Matrix({[[str(x) for x in row] for row in self.rows]})"

    def to_json_list(self):
        return [[str(x) for x in row] for row in self.rows]

    @classmethod
    def from_json_list(cls, entries):
        return cls(entries)


# ---------------------------------------------------------------------------
# linear algebra over the Gaussian rationals


def _vec(matrix):
    return tuple(itertools.chain.from_iterable(matrix.rows))


def _unvec(vector, dim):
    return Matrix._from_rows(tuple(tuple(vector[i : i + dim]) for i in range(0, dim * dim, dim)))


def rref(vectors):
    """Reduced echelon form of the span of the given coordinate vectors.

    Rows are fully reduced with unit pivots and sorted by pivot column, so
    the result is a canonical basis of the span.  Each vector is reduced
    against the rows so far, scaled to a unit pivot, and then clears its
    pivot column from those rows; both eliminations are
    :func:`_reduce_against`, which walks only the support of the row it
    subtracts.
    """
    basis = []  # (pivot column, row, support), sorted by pivot column
    for vector in vectors:
        row = _reduce_against(vector, basis)
        support = _support(row)
        if not support:
            continue
        lead = support[0]
        inv = row[lead]
        for k in support:
            row[k] = row[k] / inv
        new = (lead, row, support)
        for i, (pivot_col, other, _) in enumerate(basis):
            factor = other[lead]
            if factor.a or factor.b:
                other = _reduce_against(other, (new,))
                basis[i] = (pivot_col, other, _support(other))
        basis.append(new)
        basis.sort(key=lambda item: item[0])
    return tuple(tuple(row) for _, row, _ in basis)


def _reduce_against(vector, basis):
    """Residue of a vector after elimination against (pivot column, row,
    support) triples, each row zero off its support."""
    vector = list(vector)
    for pivot_col, row, support in basis:
        factor = vector[pivot_col]
        if factor.a or factor.b:
            for k in support:
                vector[k] = _sub_mul(vector[k], factor, row[k])
    return vector


def _support(row):
    """Indices of the nonzero entries of a row."""
    return tuple(k for k, x in enumerate(row) if x.a or x.b)


def _close_once(dim, rows):
    """One closure step: the echelon basis of ``rows`` (flattened matrices),
    the identity, their adjoints and their pairwise products."""
    mats = [_unvec(v, dim) for v in rows]
    candidates = [Matrix.identity(dim)] + [m.adjoint() for m in mats]
    candidates.extend(a * b for a, b in itertools.product(mats, repeat=2))
    return rref(list(rows) + [_vec(c) for c in candidates])


# ---------------------------------------------------------------------------
# the algebra type


class StarAlgebra:
    """Unital *-closed span of matrices, with a canonical echelon basis.

    The stored basis is always re-canonicalized to reduced echelon form,
    so two algebras are equal exactly when they have the same span.  An
    instance keeps its projection table and its subalgebra lattice once
    formed, as :class:`FinPoset` keeps its bound tables.
    """

    __slots__ = ("dim", "basis", "generators", "_pivots", "_sums", "_lattice")

    def __init__(self, dim, basis_matrices, generators=()):
        if dim > AMBIENT_MAX:
            raise SizeLimit("ambient matrix size", dim, AMBIENT_MAX)
        basis_matrices = list(basis_matrices)
        generators = tuple(generators)
        for m in basis_matrices + list(generators):
            if m.dim != dim:
                raise DimMismatch(f"matrix of size {m.dim} in ambient size {dim}")
        rows = rref([_vec(m) for m in basis_matrices])
        if len(rows) > ALGEBRA_DIM_MAX:
            raise SizeLimit("algebra dimension", len(rows), ALGEBRA_DIM_MAX)
        if len(_close_once(dim, rows)) != len(rows):
            raise BadParameters("basis span lacks the identity, an adjoint or a product")
        self._set(dim, rows, generators)
        if not all(self.contains(g) for g in generators):
            raise BadParameters("a generator lies outside the basis span")

    @classmethod
    def _from_rref(cls, dim, rows, generators):
        """Unchecked constructor: ``rows`` an ``rref`` basis of a span known
        to be a unital *-algebra, ``generators`` a tuple inside it."""
        algebra = _new(cls)
        algebra._set(dim, rows, generators)
        return algebra

    def _set(self, dim, rows, generators):
        self.dim = dim
        self.basis = tuple(_unvec(v, dim) for v in rows)
        self.generators = generators
        self._pivots = [(s[0], row, s) for row, s in zip(rows, map(_support, rows))]
        self._sums = self._lattice = None

    @property
    def dimension(self):
        return len(self.basis)

    def contains(self, matrix):
        if matrix.dim != self.dim:
            raise DimMismatch(f"ambient dimension mismatch: {matrix.dim} vs {self.dim}")
        return not any(x.a or x.b for x in _reduce_against(_vec(matrix), self._pivots))

    def contains_algebra(self, other):
        return self.dim == other.dim and all(self.contains(m) for m in other.basis)

    def __eq__(self, other):
        return (
            isinstance(other, StarAlgebra)
            and self.dim == other.dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.dim, self.basis))

    def __repr__(self):
        return f"StarAlgebra(dim={self.dim}, dimension={self.dimension})"

    def to_json_dict(self):
        return {
            "dim": self.dim,
            "basis": [m.to_json_list() for m in self.basis],
            "generators": [m.to_json_list() for m in self.generators],
        }


def generated_algebra(generators, dim=None):
    """Smallest unital *-closed subalgebra containing the generators.

    In finite dimension the *-algebra closure is automatically closed, so
    iterating :func:`_close_once` until the dimension stabilizes computes
    it.  The identity is always adjoined.
    """
    generators = list(generators)
    if dim is None:
        if not generators:
            raise BadParameters("need generators or an explicit ambient dimension")
        dim = generators[0].dim
    if dim > AMBIENT_MAX:
        raise SizeLimit("ambient matrix size", dim, AMBIENT_MAX)
    for g in generators:
        if g.dim != dim:
            raise DimMismatch(f"generator of size {g.dim} in ambient size {dim}")
    current = rref([_vec(m) for m in [Matrix.identity(dim)] + generators])
    while True:
        if len(current) > ALGEBRA_DIM_MAX:
            raise SizeLimit("algebra dimension", len(current), ALGEBRA_DIM_MAX)
        grown = _close_once(dim, current)
        if len(grown) == len(current):
            return StarAlgebra._from_rref(dim, current, tuple(generators))
        current = grown


def is_commutative(algebra):
    """All basis pairs commute (bilinearity extends this to the span)."""
    return all(
        a.commutes_with(b) for a, b in itertools.combinations(algebra.basis, 2)
    )


def _require_spectral(algebra):
    if not is_commutative(algebra):
        raise NotCommutative("algebra is not commutative")
    for g in algebra.generators:
        if not g.is_projection():
            raise GeneratorNotProjection(g)


def minimal_projections(algebra):
    """Orthogonal minimal projections, one per spectrum point.

    Successive refinement: start from the identity and split each piece by
    every generator p into q*p and q*(1-p), dropping zeros.  The result is
    a family of pairwise orthogonal projections summing to the identity
    whose count equals the algebra dimension.
    """
    _require_spectral(algebra)
    identity = Matrix.identity(algebra.dim)
    pieces = [identity]
    for p in algebra.generators:
        complement = identity - p
        refined = []
        for q in pieces:
            for part in (q * p, q * complement):
                if not part.is_zero():
                    refined.append(part)
        pieces = refined
    total = Matrix.zero(algebra.dim)
    for q in pieces:
        if not q.is_projection():
            raise AssertionFailed("refinement produced a non-projection")
        total = total + q
    if total != identity:
        raise AssertionFailed("minimal projections do not sum to the identity")
    for a, b in itertools.combinations(pieces, 2):
        if not (a * b).is_zero():
            raise AssertionFailed("minimal projections are not orthogonal")
    if len(pieces) != algebra.dimension:
        raise AssertionFailed("projection count does not match the algebra dimension")
    return pieces


@dataclass
class Spectrum:
    """Finite spectrum: one character per minimal projection.

    ``table[i][j]`` is the value of character i on basis element j; each
    basis element must reconstruct as the character-weighted sum of the
    minimal projections.
    """

    points: tuple
    projections: tuple
    table: tuple

    def to_json_dict(self):
        return {
            "points": list(self.points),
            "table": [[str(v) for v in row] for row in self.table],
        }


def spectrum(algebra):
    """Characters of a commutative projection-generated algebra."""
    projections = minimal_projections(algebra)
    table = []
    for q in projections:
        coords = _nonzero_coordinate(q)
        row = []
        for b in algebra.basis:
            product = b * q
            value = product.rows[coords[0]][coords[1]] / q.rows[coords[0]][coords[1]]
            row.append(value)
        table.append(tuple(row))
    points = tuple(f"x{i}" for i in range(len(projections)))
    return Spectrum(points=points, projections=tuple(projections), table=tuple(table))


def _nonzero_coordinate(matrix):
    for i, row in enumerate(matrix.rows):
        for j, x in enumerate(row):
            if x.a or x.b:
                return (i, j)
    raise BadParameters("zero matrix has no nonzero coordinate")


def _projection_sums(projections, dim):
    """The 2^k projections of the algebra: the :func:`order.subset_table`
    of its minimal projections under addition, so entry m sums the
    ``projections[i]`` with bit i set in m and entry 0 is zero."""
    return subset_table(projections, Matrix.__add__, Matrix.zero(dim))


def projection_table(algebra, limit):
    """Proj(A), the projections of a commutative projection-generated algebra.

    The :func:`_projection_sums` table of its k minimal projections
    (projection i at entry 1 << i); SizeLimit when k exceeds the caller's
    ``limit``.  Formed once per instance and kept on it.
    """
    sums = algebra._sums
    if sums is None:
        projections = minimal_projections(algebra)
        k = len(projections)
    else:
        k = len(sums).bit_length() - 1
    if k > limit:
        raise SizeLimit("spectrum size", k, limit)
    if sums is None:
        sums = algebra._sums = _projection_sums(projections, algebra.dim)
    return sums


def block_sum_algebra(sums, partition, dim):
    """Span of the block sums of minimal projections over a partition.

    ``sums`` is the :func:`projection_table` of the minimal projections,
    and point i of the partition's ground is bit i - 1, so each block's
    sum is read at its mask and no matrix is added here.  The block sums
    are nonzero orthogonal projections summing to the identity, hence
    linearly independent: one dimension per block.  Their span is a
    *-algebra by construction, so it is built unchecked.
    """
    blocks = tuple(sums[sum(1 << (i - 1) for i in cls)] for cls in partition.classes)
    return StarAlgebra._from_rref(dim, rref([_vec(m) for m in blocks]), blocks)


def c_lattice(algebra):
    """Lattice of the subalgebras of a commutative projection-generated algebra.

    Nodes, labels and order are the spectrum's partition lattice in the
    subalgebra orientation; each node carries its block-sum subalgebra,
    read from the :func:`projection_table` (at most ``LATTICE_MAX``
    minimal projections).  The matrices certify the order (else
    AssertionFailed): each Hasse cover is a containment, each algebra has
    one dimension per block, and no two are equal.  An injective
    order-preserving self-map of a finite poset is an automorphism, so
    this is as strong as checking all pairs.  The certified lattice is
    kept on the algebra.
    """
    if algebra._lattice is not None:
        return algebra._lattice
    sums, dim = projection_table(algebra, LATTICE_MAX), algebra.dim
    lattice = partition_lattice(len(sums).bit_length() - 1, ORIENT_SUBALGEBRA)
    labels = lattice.elements
    algebras = [block_sum_algebra(sums, rel, dim) for rel in lattice.payloads]
    poset = FinPoset._from_masks(labels, lattice.up, lattice.dn, ORIENT_SUBALGEBRA, algebras)
    for i, j in poset.covers():
        if not algebras[j].contains_algebra(algebras[i]):
            raise AssertionFailed(f"subalgebra {labels[j]} does not contain {labels[i]}")
    seen = {}
    for label, rel, sub in zip(labels, lattice.payloads, algebras):
        if sub.dimension != len(rel.classes):
            raise AssertionFailed(
                f"subalgebra {label} has dimension {sub.dimension}, not {len(rel.classes)}"
            )
        if seen.setdefault(sub, label) != label:
            raise AssertionFailed(f"nodes {seen[sub]} and {label} have the same subalgebra")
    algebra._lattice = poset
    return poset


def atoms(algebra):
    """Two-dimensional subalgebras spanned by a nontrivial projection.

    One per unordered split of the minimal projections into two nonempty
    parts: 2^(k-1) - 1 of them for a k-point spectrum, at most
    ``LATTICE_MAX`` points.  Each split is named once, by its side
    containing piece 0, and its projection p is read from the
    :func:`projection_table`; span{1, p} is a *-algebra, so it is built
    unchecked, with generator p.
    """
    sums = projection_table(algebra, LATTICE_MAX)
    k = len(sums).bit_length() - 1
    one = _vec(Matrix.identity(algebra.dim))
    out = []
    for size in range(1, k):
        for rest in itertools.combinations(range(1, k), size - 1):
            p = sums[sum(1 << i for i in (0,) + rest)]
            out.append(StarAlgebra._from_rref(algebra.dim, rref([one, _vec(p)]), (p,)))
    return out


def pushforward_hom(mapping, partition):
    """Image of a subalgebra under the dual of a map between finite spectra.

    ``mapping`` sends each target point, its keys, into the source
    spectrum, the ground of ``partition``; the image is the pulled-back
    partition of the sorted keys: two target points are identified exactly
    when their images are.  The lower adjoint of :func:`pullback_adjoint`.
    """
    target_ground = tuple(sorted(mapping))
    # y is labelled by the class of its image, renumbered by first occurrence
    try:
        labels = _first_occurrence(partition._class_index(mapping[y]) for y in target_ground)
    except KeyError as exc:
        raise NotTotal(f"map sends a point outside the source spectrum, to {exc}") from None
    return EqRel._from_labels(target_ground, labels)


def pullback_adjoint(mapping, partition, source_ground):
    """Upper adjoint of :func:`pushforward_hom` along the same map.

    Sends a target-side subalgebra (a partition of the map's keys, else
    GroundMismatch) to the largest source-side subalgebra whose pushforward
    it contains: the relation on ``source_ground`` generated by the image
    pairs of identified points.  NotTotal when the map leaves it.  The
    source ground is sorted once, and the images of each class are linked
    at their positions by :func:`partitions._linked_labels`.
    """
    keys = partition.ground
    if len(mapping) != len(keys) or not all(y in mapping for y in keys):
        raise GroundMismatch("the partition does not live on the map's domain")
    source_ground = tuple(sorted(source_ground))
    position = {x: i for i, x in enumerate(source_ground)}
    # link each point's image with the image of its class's first point
    first = [None] * len(partition.classes)
    links = []
    for y, k in zip(keys, partition._labels):
        i = position.get(mapping[y])
        if i is None:
            raise NotTotal(f"map sends {y!r} outside the source spectrum")
        j = first[k]
        if j is None:
            first[k] = i
        elif j != i:
            links.append((i, j))
    if len(position) != len(source_ground):
        raise BadParameters("ground set has duplicate members")
    return EqRel._from_labels(source_ground, _linked_labels(len(source_ground), links))
