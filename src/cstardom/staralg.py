"""Matrix *-algebras over exact Gaussian rationals.

Each matrix entry is a Gaussian rational (a + b i)/d stored as three
Python ints in lowest terms (d > 0, gcd(a, b, d) = 1), so the kernels
below (products, elimination, containment) do integer arithmetic only and
equal entries have equal fields.  Algebras are spans of square matrices,
closed under product and conjugate transpose and containing the identity.
A matrix of size n is its sparse row, the (i*n + j, entry) pairs over its
nonzero entries in index order: sums, products, adjoints and elimination
all read and write that row, and a dense table is built only from outside
input and for output.  An algebra stores the reduced echelon rows of its
span, so equal algebras have equal row tuples, and its ``basis`` matrices
are those rows.  Outside input is checked once: ``StarAlgebra(dim, basis,
generators)`` requires the span to be closed and to hold the generators;
the package's own builds are unchecked.  Spectral operations (minimal
projections, characters, the subalgebra lattice) require the generators to
be projections, which keeps every computation inside the rationals.  An
algebra forms its projection table, all of Proj(A), and its subalgebra
lattice C(A) at most once and keeps them: the lattice and the atoms read
the one table, each sum as one row, and ``ortho.verify_caf_iso`` reads its
k minimal projections' rows.
"""

from __future__ import annotations

import bisect
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
    check_size,
)
from .order import FinPoset, subset_table
from .partitions import (ORIENT_SUBALGEBRA, EqRel, _first_occurrence, _linked_labels,
                         partition_lattice)

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


def _check_dim(dim):
    if dim < 1:
        raise DimMismatch("matrix must be square and nonempty")


def _merge(left, right, negate=False):
    """Sum of two sparse rows, or difference with ``negate``: each an
    iterable of (index, nonzero entry) pairs, the result a tuple of them
    sorted by index, without zeros."""
    total = dict(left)
    pop = total.pop
    for k, x in right:
        x = pop(k, GR_ZERO) - x if negate else pop(k, GR_ZERO) + x
        if x.a or x.b:
            total[k] = x
    return tuple(sorted(total.items()))


class Matrix:
    """Square matrix of Gaussian rationals, held as its sparse row.

    ``row`` is the tuple of (i*dim + j, entry) pairs over the nonzero
    entries, sorted by index, each entry in normal form; so equal matrices
    have equal rows, and the kernels below walk nonzero entries only.
    ``Matrix(rows)`` coerces and checks a dense outside table; kernel
    outputs are built by the unchecked ``Matrix._from_row``.  The dense
    table (``rows``) is built for output only.
    """

    __slots__ = ("dim", "row")

    def __init__(self, rows):
        rows = [[gr(x) for x in row] for row in rows]
        dim = len(rows)
        if dim == 0 or any(len(row) != dim for row in rows):
            raise DimMismatch("matrix must be square and nonempty")
        self.dim = dim
        entries = enumerate(itertools.chain.from_iterable(rows))
        self.row = tuple((k, x) for k, x in entries if x.a or x.b)

    @classmethod
    def _from_row(cls, dim, row):
        """Unchecked constructor: ``dim`` >= 1 and a row of the form above,
        as the kernels and ``rref`` produce."""
        matrix = _new(cls)
        matrix.dim = dim
        matrix.row = row
        return matrix

    @classmethod
    def identity(cls, dim):
        _check_dim(dim)
        return cls._from_row(dim, tuple((i * (dim + 1), GR_ONE) for i in range(dim)))

    @classmethod
    def zero(cls, dim):
        _check_dim(dim)
        return cls._from_row(dim, ())

    @classmethod
    def diag(cls, values):
        values = [gr(v) for v in values]
        dim = len(values)
        return cls([[values[i] if i == j else 0 for j in range(dim)] for i in range(dim)])

    @classmethod
    def unit(cls, dim, i, j):
        """Matrix unit with a single 1 in row i, column j."""
        return cls([[1 if (r, c) == (i, j) else 0 for c in range(dim)] for r in range(dim)])

    @property
    def rows(self):
        """The dense table of entries, for output."""
        dim = self.dim
        flat = [GR_ZERO] * (dim * dim)
        for k, x in self.row:
            flat[k] = x
        return tuple(tuple(flat[i : i + dim]) for i in range(0, dim * dim, dim))

    def __add__(self, other):
        self._match(other)
        return Matrix._from_row(self.dim, _merge(self.row, other.row))

    def __sub__(self, other):
        self._match(other)
        return Matrix._from_row(self.dim, _merge(self.row, other.row, negate=True))

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            scalar = gr(other)
            row = tuple((k, x * scalar) for k, x in self.row) if scalar.a or scalar.b else ()
            return Matrix._from_row(self.dim, row)
        self._match(other)
        n = self.dim
        # other's entries by row, as (column, a, b, d)
        by_row = [[] for _ in range(n)]
        for k, y in other.row:
            i, j = divmod(k, n)
            by_row[i].append((j, y.a, y.b, y.d))
        # entry k of the product as [a, b, d] over a running denominator;
        # reduced once, at the end
        sums = {}
        get = sums.get
        for k, x in self.row:
            m = k % n
            start = k - m
            a, b, d = x.a, x.b, x.d
            for j, c, e, f in by_row[m]:
                ta, tb, td = a * c - b * e, a * e + b * c, d * f
                total = get(start + j)
                if total is None:
                    sums[start + j] = [ta, tb, td]
                elif total[2] == td:
                    total[0] += ta
                    total[1] += tb
                else:
                    den = total[2]
                    total[0] = total[0] * td + ta * den
                    total[1] = total[1] * td + tb * den
                    total[2] = den * td
        row = ((k, _make(*sums[k])) for k in sorted(sums))
        return Matrix._from_row(n, tuple((k, x) for k, x in row if x.a or x.b))

    __rmul__ = __mul__

    def adjoint(self):
        """Conjugate transpose."""
        n = self.dim
        return Matrix._from_row(
            n, tuple(sorted((k % n * n + k // n, x.conjugate()) for k, x in self.row))
        )

    def is_zero(self):
        return not self.row

    def is_projection(self):
        return self == self.adjoint() and self * self == self

    def commutes_with(self, other):
        return self * other == other * self

    def _match(self, other):
        if self.dim != other.dim:
            raise DimMismatch(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.dim == other.dim and self.row == other.row

    def __hash__(self):
        return hash((self.dim, self.row))

    def __repr__(self):
        return f"Matrix({self.to_json_list()})"

    def to_json_list(self):
        return [[str(x) for x in row] for row in self.rows]

    @classmethod
    def from_json_list(cls, entries):
        return cls(entries)


# ---------------------------------------------------------------------------
# linear algebra over the Gaussian rationals


def rref(rows):
    """Reduced echelon form of the span of rows, each an iterable of
    (index, nonzero value) pairs as :attr:`Matrix.row` holds them.

    The result is a canonical basis of the span: unit pivots, sorted by
    pivot, each row a tuple of pairs in index order.  Each row is reduced
    against the echelon rows so far and joins them; then each, from the
    last, is reduced against the rows after it.  Both eliminations are
    :func:`_reduce_against`.
    """
    echelon = []
    for vector in rows:
        residue = _reduce_against(vector, echelon)
        if residue:
            inv = residue[min(residue)]
            if inv.b or inv.a != inv.d:
                residue = {k: x / inv for k, x in residue.items()}
            # pivots differ, so rows compare by pivot alone
            bisect.insort(echelon, tuple(sorted(residue.items())))
    reduced = []
    for row in reversed(echelon):
        reduced.insert(0, tuple(sorted(_reduce_against(row, reduced).items())))
    return tuple(reduced)


def _reduce_against(vector, basis):
    """Residue of a row after elimination against echelon rows sorted by
    pivot: a dict of its nonzero entries, empty when the row is in the span."""
    vector = dict(vector)
    get = vector.get
    for row in basis:
        factor = get(row[0][0])
        if factor is None:
            continue
        fa, fb, fd = factor.a, factor.b, factor.d
        for k, p in row:
            # r - factor * p in one normalisation, on the integer fields
            pa, pb = p.a, p.b
            ta, tb, td = fa * pa - fb * pb, fa * pb + fb * pa, fd * p.d
            r = get(k, GR_ZERO)
            rd = r.d
            if rd == td:
                x = _make(r.a - ta, r.b - tb, td)
            else:
                x = _make(r.a * td - ta * rd, r.b * td - tb * rd, rd * td)
            if x.a or x.b:
                vector[k] = x
            else:
                del vector[k]
    return vector


def _close_once(dim, rows):
    """One closure step: the echelon basis of ``rows``, the identity, their
    adjoints and their pairwise products."""
    mats = [Matrix._from_row(dim, v) for v in rows]
    candidates = [Matrix.identity(dim)] + [m.adjoint() for m in mats]
    candidates.extend(a * b for a, b in itertools.product(mats, repeat=2))
    return rref(list(rows) + [c.row for c in candidates])


# ---------------------------------------------------------------------------
# the algebra type


class StarAlgebra:
    """Unital *-closed span of matrices, with a canonical echelon basis.

    ``rows``, the reduced echelon rows of the span, are equal exactly when
    the spans are; ``basis`` reads each as a matrix.  An instance
    keeps its projection table and its subalgebra lattice once formed, as
    :class:`FinPoset` keeps its bound tables.
    """

    __slots__ = ("dim", "rows", "generators", "_sums", "_lattice")

    def __init__(self, dim, basis_matrices, generators=()):
        check_size("ambient", dim)
        basis_matrices = list(basis_matrices)
        generators = tuple(generators)
        for m in basis_matrices + list(generators):
            if m.dim != dim:
                raise DimMismatch(f"matrix of size {m.dim} in ambient size {dim}")
        rows = rref([m.row for m in basis_matrices])
        check_size("algebra", len(rows))
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
        self.rows = rows
        self.generators = generators
        self._sums = self._lattice = None

    @property
    def basis(self):
        return tuple(Matrix._from_row(self.dim, row) for row in self.rows)

    @property
    def dimension(self):
        return len(self.rows)

    def contains(self, matrix):
        if matrix.dim != self.dim:
            raise DimMismatch(f"ambient dimension mismatch: {matrix.dim} vs {self.dim}")
        return not _reduce_against(matrix.row, self.rows)

    def contains_algebra(self, other):
        return self.dim == other.dim and not any(_reduce_against(r, self.rows) for r in other.rows)

    def __eq__(self, other):
        return isinstance(other, StarAlgebra) and (self.dim, self.rows) == (other.dim, other.rows)

    def __hash__(self):
        return hash((self.dim, self.rows))

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
    check_size("ambient", dim)
    for g in generators:
        if g.dim != dim:
            raise DimMismatch(f"generator of size {g.dim} in ambient size {dim}")
    current = rref([m.row for m in [Matrix.identity(dim)] + generators])
    while True:
        check_size("algebra", len(current))
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
        # b*q is a multiple of q: read the factor at q's first nonzero entry
        k, x = q.row[0]
        table.append(tuple(dict((b * q).row).get(k, GR_ZERO) / x for b in algebra.basis))
    points = tuple(f"x{i}" for i in range(len(projections)))
    return Spectrum(points=points, projections=tuple(projections), table=tuple(table))


def _projection_sums(projections, dim):
    """The 2^k projections of the algebra: the :func:`order.subset_table`
    of its minimal projections under addition, so entry m sums the
    ``projections[i]`` with bit i set in m and entry 0 is zero."""
    return subset_table(projections, Matrix.__add__, Matrix.zero(dim))


def projection_table(algebra, guard):
    """Proj(A), the projections of a commutative projection-generated algebra.

    The :func:`_projection_sums` table of its k minimal projections
    (projection i at entry 1 << i); SizeLimit when k is past the caller's
    ``guard``, a name in ``errors.LIMITS``, and then before the table is
    formed.  Formed once per instance and kept on it.
    """
    sums = algebra._sums
    if sums is None:
        projections = minimal_projections(algebra)
        k = len(projections)
    else:
        k = len(sums).bit_length() - 1
    check_size(guard, k)
    if sums is None:
        sums = algebra._sums = _projection_sums(projections, algebra.dim)
    return sums


def projection_mask(algebra, sums):
    """The mask of the :func:`projection_table` entries that lie in
    ``algebra``: reduction is linear, so entry m is in when the sum of its
    minimal projections' residues, entry m of their :func:`order.subset_table`
    under row addition, is empty."""
    k = len(sums).bit_length() - 1
    residues = [_reduce_against(sums[1 << t].row, algebra.rows).items() for t in range(k)]
    table = subset_table(residues, _merge, ())
    return sum(1 << m for m, residue in enumerate(table) if not residue)


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
    return StarAlgebra._from_rref(dim, rref([m.row for m in blocks]), blocks)


def c_lattice(algebra):
    """Lattice of the subalgebras of a commutative projection-generated algebra.

    Nodes, labels and order are the spectrum's partition lattice in the
    subalgebra orientation; each node carries its block-sum subalgebra,
    read from the :func:`projection_table` (within the ``spectrum`` guard
    of ``errors.LIMITS``).  The matrices certify the order (else
    AssertionFailed): each Hasse cover is a containment, each algebra has
    one dimension per block, and no two are equal.  An injective
    order-preserving self-map of a finite poset is an automorphism, so
    this is as strong as checking all pairs.  The certified lattice is
    kept on the algebra.
    """
    if algebra._lattice is not None:
        return algebra._lattice
    sums, dim = projection_table(algebra, "spectrum"), algebra.dim
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
    parts: 2^(k-1) - 1 of them for a k-point spectrum, within the
    ``spectrum`` guard.  Each split is named once, by its side
    containing piece 0, and its projection p is read from the
    :func:`projection_table`; span{1, p} is a *-algebra, so it is built
    unchecked, with generator p.
    """
    sums = projection_table(algebra, "spectrum")
    k = len(sums).bit_length() - 1
    one = Matrix.identity(algebra.dim).row
    out = []
    for size in range(1, k):
        for rest in itertools.combinations(range(1, k), size - 1):
            p = sums[sum(1 << i for i in (0,) + rest)]
            out.append(StarAlgebra._from_rref(algebra.dim, rref([one, p.row]), (p,)))
    return out


def pushforward_hom(mapping, partition):
    """Image of a subalgebra under the dual of a map between finite spectra.

    ``mapping`` sends each target point, its keys, into the source
    spectrum, the ground of ``partition``; the image is the pulled-back
    partition of the sorted keys: two target points are identified exactly
    when their images are.  The lower adjoint of :func:`pullback_adjoint`.
    """
    target_ground = tuple(sorted(mapping))
    class_of = partition._class_map()
    # y is labelled by the class of its image, renumbered by first occurrence
    try:
        labels = _first_occurrence([class_of[mapping[y]] for y in target_ground])
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
    if mapping.keys() != set(keys):
        raise GroundMismatch("the partition does not live on the map's domain")
    source_ground = tuple(sorted(source_ground))
    position = {x: i for i, x in enumerate(source_ground)}
    # link each point's image with the image of its class's first point
    first = {}
    links = []
    for y, k in zip(keys, partition._labels):
        i = position.get(mapping[y])
        if i is None:
            raise NotTotal(f"map sends {y!r} outside the source spectrum")
        j = first.setdefault(k, i)
        if j != i:
            links.append((i, j))
    if len(position) != len(source_ground):
        raise BadParameters("ground set has duplicate members")
    return EqRel._from_labels(source_ground, _linked_labels(len(source_ground), links))
