import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cstardom import partitions, staralg
from cstardom.errors import (
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
from cstardom.order import FinPoset
from cstardom.ortho import verify_caf_iso
from cstardom.partitions import (
    LATTICE_MAX,
    ORIENT_SUBALGEBRA,
    EqRel,
    collapse,
    partition_lattice,
)
from cstardom.staralg import (
    GR_ZERO,
    GaussianRational,
    Matrix,
    StarAlgebra,
    atoms,
    c_lattice,
    generated_algebra,
    gr,
    is_commutative,
    minimal_projections,
    pullback_adjoint,
    pushforward_hom,
    spectrum,
)
from test_order import lub
from test_partitions import class_of, from_pairs_by_buckets


def diag(*values):
    return Matrix.diag(list(values))


def assert_equals_checked_build(algebra):
    """An unchecked build equals the checked constructor's on its own basis
    and generators: same span, pivots and generators, and the check passes."""
    checked = StarAlgebra(algebra.dim, algebra.basis, algebra.generators)
    assert checked == algebra and hash(checked) == hash(algebra)
    assert checked.basis == algebra.basis and checked.generators == algebra.generators
    assert checked._pivots == algebra._pivots


def diagonal_algebra(k):
    gens = [diag(*([1] * (j + 1) + [0] * (k - j - 1))) for j in range(k - 1)]
    return generated_algebra(gens, dim=k)


def rotated_algebra(k):
    """The k-point diagonal algebra conjugated by 3-4-5 rotations of axes 0-1 and 1-2."""
    rotation = Matrix.identity(k)
    for a in (0, 1):
        rows = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
        rows[a][a], rows[a][a + 1] = Fraction(3, 5), Fraction(-4, 5)
        rows[a + 1][a], rows[a + 1][a + 1] = Fraction(4, 5), Fraction(3, 5)
        rotation = rotation * Matrix(rows)
    gens = [rotation * g * rotation.adjoint() for g in diagonal_algebra(k).generators]
    return generated_algebra(gens, dim=k)


fractions_st = st.fractions(
    min_value=-3, max_value=3, max_denominator=4
)


@st.composite
def gaussians(draw):
    return GaussianRational(draw(fractions_st), draw(fractions_st))


class TestGaussianRational:
    @settings(max_examples=80, deadline=None)
    @given(gaussians(), gaussians(), gaussians())
    def test_field_laws(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a and a * b == b * a

    @settings(max_examples=60, deadline=None)
    @given(gaussians())
    def test_conjugation_involution(self, a):
        assert a.conjugate().conjugate() == a
        norm = a * a.conjugate()
        assert norm.im == 0 and norm.re >= 0

    @settings(max_examples=60, deadline=None)
    @given(gaussians(), gaussians())
    def test_division_inverts(self, a, b):
        if not b.is_zero():
            assert (a / b) * b == a

    @settings(max_examples=60, deadline=None)
    @given(gaussians())
    def test_string_round_trip(self, a):
        assert GaussianRational.from_string(str(a)) == a

    def test_parse_spec_format(self):
        v = GaussianRational.from_string("1/2+3/4 i")
        assert v == GaussianRational(Fraction(1, 2), Fraction(3, 4))
        assert GaussianRational.from_string("2/3 i").re == 0
        for text in ("one half", "1/0", "1/0 i", "1+1/0 i"):
            with pytest.raises(ParseError):
                GaussianRational.from_string(text)

    @pytest.mark.parametrize(
        "text, re, im",
        [
            ("1e-5 i", 0, Fraction(1, 10**5)),
            ("2+1e-5 i", 2, Fraction(1, 10**5)),
            ("2-3e-2i", 2, Fraction(-3, 100)),
            ("1E+3i", 0, 1000),
            ("-1e-2-1e-2 i", Fraction(-1, 100), Fraction(-1, 100)),
        ],
        ids=["1e-5 i", "2+1e-5 i", "2-3e-2i", "1E+3i", "-1e-2-1e-2 i"],
    )
    def test_an_exponent_sign_is_not_the_split(self, text, re, im):
        value = GaussianRational.from_string(text)
        assert (value.re, value.im) == (re, im)

    def test_an_exponent_needs_digits(self):
        with pytest.raises(ParseError):
            GaussianRational.from_string("1e i")

    def test_parts_are_held_to_the_digit_limit(self):
        # 4300 digits above and below the bar pass; one more is refused, on
        # the real path and on the imaginary one alike
        limit = staralg.ENTRY_DIGITS_MAX
        assert GaussianRational.from_string(f"1e{limit - 1}").re == 10 ** (limit - 1)
        assert GaussianRational.from_string(f"1e-{limit - 1}").re == Fraction(1, 10 ** (limit - 1))
        assert GaussianRational.from_string(f"1+1e{limit - 1} i").im == 10 ** (limit - 1)
        # an exponent past the limit is fine when the mantissa cancels it
        assert GaussianRational.from_string(f"1{'0' * 600}e-{limit + 500}").re == Fraction(
            1, 10 ** (limit - 100)
        )
        for text in (f"1e{limit}", f"1e-{limit}", f"1+1e{limit} i", f"1-1e-{limit} i",
                     f"2/{'3' * limit}1 i",
                     "1e10000000", "1e" + "9" * 4000, "1/2e99999", "1e1e99999", "0e99999"):
            with pytest.raises(ParseError):
                GaussianRational.from_string(text)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            gr(1) / gr(0)


@dataclass(frozen=True)
class RefGaussian:
    """Reference scalar: real and imaginary parts as two Fractions."""

    re: Fraction
    im: Fraction

    def __add__(self, other):
        return RefGaussian(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return RefGaussian(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        return RefGaussian(
            self.re * other.re - self.im * other.im, self.re * other.im + self.im * other.re
        )

    def __truediv__(self, other):
        norm = other.re * other.re + other.im * other.im
        return RefGaussian(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def conjugate(self):
        return RefGaussian(self.re, -self.im)

    def is_zero(self):
        return self.re == 0 and self.im == 0

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im} i"
        return f"{self.re}{'+' if self.im > 0 else '-'}{abs(self.im)} i"


def ref(x):
    return RefGaussian(x.re, x.im)


def assert_normal(x):
    assert x.d > 0 and math.gcd(x.a, x.b, x.d) == 1
    assert (x.re, x.im) == (Fraction(x.a, x.d), Fraction(x.b, x.d))


def ref_rref(vectors):
    """Reference elimination over RefGaussian rows, as in the Fraction-pair kernel."""
    rows = [[ref(x) for x in v] for v in vectors]
    rows = [row for row in rows if not all(x.is_zero() for x in row)]
    basis = []
    for row in rows:
        for pivot_col, pivot_row in basis:
            factor = row[pivot_col]
            if not factor.is_zero():  # subtracting zero would leave the row as it is
                row = [x - factor * p for x, p in zip(row, pivot_row)]
        lead = next((k for k, x in enumerate(row) if not x.is_zero()), None)
        if lead is None:
            continue
        inv = row[lead]
        row = [x / inv for x in row]
        basis = [
            (pivot_col, pivot_row if pivot_row[lead].is_zero()
             else [x - pivot_row[lead] * r for x, r in zip(pivot_row, row)])
            for pivot_col, pivot_row in basis
        ]
        basis.append((lead, row))
        basis.sort(key=lambda item: item[0])
    return [row for _, row in basis]


class TestIntegerScalar:
    @settings(max_examples=150, deadline=None)
    @given(gaussians(), gaussians())
    def test_operations_match_the_fraction_pair_reference(self, x, y):
        rx, ry = ref(x), ref(y)
        for got, want in ((x + y, rx + ry), (x - y, rx - ry), (x * y, rx * ry),
                          (x.conjugate(), rx.conjugate()), (-x, RefGaussian(-rx.re, -rx.im))):
            assert ref(got) == want and str(got) == str(want)
            assert_normal(got)
        if not ry.is_zero():
            assert ref(x / y) == rx / ry and str(x / y) == str(rx / ry)
            assert_normal(x / y)
        assert (x == y) == (rx == ry)
        assert str(x) == str(rx)
        if x == y:
            assert hash(x) == hash(y)

    @settings(max_examples=80, deadline=None)
    @given(fractions_st, fractions_st)
    def test_equal_values_from_ints_fractions_and_strings(self, re, im):
        from_fractions = GaussianRational(re, im)
        from_string = GaussianRational.from_string(str(from_fractions))
        scaled = GaussianRational(Fraction(re.numerator * 6, re.denominator * 6), im)
        assert from_fractions == from_string == scaled
        assert hash(from_fractions) == hash(from_string) == hash(scaled)
        assert_normal(from_fractions)
        if im == 0:
            assert gr(re) == from_fractions and hash(gr(re)) == hash(from_fractions)
            if re.denominator == 1:
                as_int = gr(re.numerator)
                assert as_int == from_fractions and hash(as_int) == hash(from_fractions)

    def test_zero_is_the_unit_triple(self):
        for zero in (GaussianRational(), gr(0), gr(Fraction(0, 5)), gr("0"), gr("0 i"),
                     gr(3) - gr(3), gr("1/2+1/3 i") * gr(0)):
            assert (zero.a, zero.b, zero.d) == (0, 0, 1)
            assert zero.is_zero()

    def test_fields_are_in_lowest_terms(self):
        x = GaussianRational(Fraction(1, 6), Fraction(-1, 4))
        assert (x.a, x.b, x.d) == (2, -3, 12)
        assert (x.re, x.im) == (Fraction(1, 6), Fraction(-1, 4))
        half = gr("1/2")
        assert ((half + half).a, (half + half).d) == (1, 1)

    def test_parts_are_read_only(self):
        x = gr("1/2+3/4 i")
        for name in ("re", "im", "a", "b", "d"):
            with pytest.raises(AttributeError):
                setattr(x, name, 1)
            with pytest.raises(AttributeError):
                delattr(x, name)
        assert repr(x) == "GaussianRational(re=Fraction(1, 2), im=Fraction(3, 4))"

    def test_shared_zero_and_one_cannot_be_changed(self):
        zero, one = gr(0), Matrix.identity(2).rows[0][0]
        for shared in (zero, one):
            with pytest.raises(AttributeError):
                shared.a = 5
        assert (zero.a, zero.b, zero.d) == (0, 0, 1)
        assert (one.a, one.b, one.d) == (1, 0, 1)


def rational_rows(rng, dim, rows, spread=2):
    return [
        [
            GaussianRational(Fraction(rng.randint(-spread, spread), rng.randint(1, 3)),
                             Fraction(rng.randint(-spread, spread), rng.randint(1, 3)))
            if rng.random() < 0.7 else 0
            for _ in range(dim)
        ]
        for _ in range(rows)
    ]


#: a few nonzero entries, drawn whole so that a tall row set stays cheap to draw
ROW_ENTRIES = [GaussianRational(Fraction(a, b), Fraction(c, 2))
               for a in (-3, -1, 1, 2) for b in (1, 3) for c in (-1, 0, 1)]


@st.composite
def row_sets(draw):
    """Rows for ``rref``: width 3, or 16 or 36 with at most four nonzero
    entries a row, where walking a row's support differs from walking its
    full width; with zero, duplicate and dependent rows, and up to three
    more rows than the width."""
    width = draw(st.sampled_from([3, 16, 36]))
    entries = st.tuples(st.integers(0, width - 1), st.sampled_from(ROW_ENTRIES))
    rows = []
    for _ in range(draw(st.integers(0, width + 3))):
        kind = draw(st.sampled_from(["sparse", "sparse", "sparse", "zero", "copy", "combination"]))
        if kind == "zero":
            rows.append((GR_ZERO,) * width)
        elif kind == "copy" and rows:
            rows.append(draw(st.sampled_from(rows)))
        elif kind == "combination" and rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            c = draw(st.sampled_from(ROW_ENTRIES))
            rows.append(tuple(x + c * y for x, y in zip(a, b)))
        else:
            row = [GR_ZERO] * width
            for k, x in draw(st.lists(entries, min_size=1, max_size=4)):
                row[k] = x
            rows.append(tuple(row))
    return rows


def _sparse_tall(width, count, rng):
    """``count`` > ``width`` rows with two nonzero entries each, every fifth
    row the sum of the two before it."""
    rows = []
    for i in range(count):
        if i % 5 == 4:
            rows.append(tuple(x + y for x, y in zip(rows[-1], rows[-2])))
            continue
        row = [GR_ZERO] * width
        for k in rng.sample(range(width), 2):
            row[k] = GaussianRational(Fraction(rng.randint(1, 3), rng.randint(1, 3)),
                                      Fraction(rng.randint(-2, 2), rng.randint(1, 3)))
        rows.append(tuple(row))
    return rows


SPARSE_TALL = _sparse_tall(36, 39, random.Random(7))


class TestIntegerKernels:
    def test_from_rows_equals_the_checked_constructor(self):
        rng = random.Random(3)
        for dim in (1, 2, 3, 4):
            checked = Matrix(rational_rows(rng, dim, dim))
            unchecked = Matrix._from_rows(checked.rows)
            assert unchecked == checked and hash(unchecked) == hash(checked)
            assert unchecked.dim == checked.dim == dim
        for dim in (1, 3):
            assert Matrix.identity(dim) == Matrix([[int(i == j) for j in range(dim)] for i in range(dim)])
            assert Matrix.zero(dim) == Matrix([[0] * dim for _ in range(dim)])

    def test_kernel_outputs_match_entrywise_reference(self):
        rng = random.Random(11)
        for _ in range(20):
            a, b = Matrix(rational_rows(rng, 3, 3)), Matrix(rational_rows(rng, 3, 3))
            ra = [[ref(x) for x in row] for row in a.rows]
            rb = [[ref(x) for x in row] for row in b.rows]
            product = [
                [sum((ra[i][k] * rb[k][j] for k in range(3)), RefGaussian(Fraction(0), Fraction(0)))
                 for j in range(3)]
                for i in range(3)
            ]
            assert [[ref(x) for x in row] for row in (a * b).rows] == product
            assert [[ref(x) for x in row] for row in (a + b).rows] == [
                [x + y for x, y in zip(p, q)] for p, q in zip(ra, rb)]
            assert [[ref(x) for x in row] for row in (a - b).rows] == [
                [x - y for x, y in zip(p, q)] for p, q in zip(ra, rb)]
            assert [[ref(x) for x in row] for row in a.adjoint().rows] == [
                [ra[j][i].conjugate() for j in range(3)] for i in range(3)]
            for m in (a * b, a + b, a - b, a.adjoint()):
                for x in itertools.chain.from_iterable(m.rows):
                    assert_normal(x)

    @settings(max_examples=100, deadline=None)
    @given(row_sets())
    @example(SPARSE_TALL)
    def test_rref_matches_the_reference_elimination(self, vectors):
        got = staralg.rref(vectors)
        assert [[ref(x) for x in row] for row in got] == ref_rref(vectors)
        for x in itertools.chain.from_iterable(got):
            assert_normal(x)

    def test_c_lattice_builds_no_checked_matrix(self, monkeypatch):
        # every matrix c_lattice makes is a kernel output: no entry is coerced
        algebra = rotated_algebra(4)
        calls = []
        original = staralg.gr

        def counted(value):
            calls.append(value)
            return original(value)

        monkeypatch.setattr(staralg, "gr", counted)
        lattice = c_lattice(algebra)
        assert lattice.n == 15
        assert len(calls) == 0


class TestMatrix:
    def test_adjoint_is_conjugate_transpose(self):
        m = Matrix([["1+1 i", "2"], ["0", "3 i"]])
        a = m.adjoint()
        assert a.rows[0][0] == GaussianRational(Fraction(1), Fraction(-1))
        assert a.rows[0][1] == gr(0)
        assert a.adjoint() == m

    def test_product_adjoint_reverses(self):
        rng = random.Random(5)

        def rand_matrix():
            return Matrix(
                [
                    [
                        GaussianRational(Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2)))
                        for _ in range(3)
                    ]
                    for _ in range(3)
                ]
            )

        for _ in range(10):
            a, b = rand_matrix(), rand_matrix()
            assert (a * b).adjoint() == b.adjoint() * a.adjoint()

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            Matrix.identity(2) * Matrix.identity(3)
        with pytest.raises(DimMismatch):
            Matrix([[1, 2]])
        for empty in (lambda: Matrix([]), lambda: Matrix.identity(0), lambda: Matrix.zero(0)):
            with pytest.raises(DimMismatch):
                empty()

    def test_projection_detection(self):
        assert diag(1, 0, 1).is_projection()
        assert not diag(2, 0).is_projection()
        assert not Matrix.unit(2, 0, 1).is_projection()

    def test_json_round_trip(self):
        m = Matrix([["1/2+3/4 i", "0"], ["1", "-1 i"]])
        assert Matrix.from_json_list(m.to_json_list()) == m


class TestGeneratedAlgebra:
    def test_single_projection_spans_two_dimensions(self):
        algebra = generated_algebra([diag(1, 0)])
        assert algebra.dimension == 2
        assert algebra.contains(Matrix.identity(2) - diag(1, 0))

    def test_no_generators_gives_scalars(self):
        algebra = generated_algebra([], dim=3)
        assert algebra.dimension == 1
        assert algebra.contains(Matrix.identity(3))

    def test_matrix_unit_generates_everything(self):
        algebra = generated_algebra([Matrix.unit(2, 0, 1)])
        assert algebra.dimension == 4
        # word-closure oracle: each matrix unit must be reachable
        for i, j in itertools.product(range(2), repeat=2):
            assert algebra.contains(Matrix.unit(2, i, j))

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            generated_algebra([diag(1, 0), diag(1, 0, 0)])
        with pytest.raises(DimMismatch):
            StarAlgebra(3, [Matrix.identity(2)])
        with pytest.raises(DimMismatch):
            StarAlgebra(2, [Matrix.identity(2)], generators=[Matrix.identity(3)])
        with pytest.raises(DimMismatch):
            generated_algebra([], dim=0)
        with pytest.raises(DimMismatch):
            StarAlgebra(0, [])

    def test_needs_dimension_hint(self):
        with pytest.raises(BadParameters):
            generated_algebra([])

    def test_closure_properties_randomized(self):
        rng = random.Random(12)
        for _ in range(8):
            dim = rng.randint(1, 3)
            gens = [
                Matrix(
                    [
                        [Fraction(rng.randint(-1, 1)) for _ in range(dim)]
                        for _ in range(dim)
                    ]
                )
                for _ in range(rng.randint(0, 2))
            ]
            algebra = generated_algebra(gens, dim=dim)
            # extensive
            for g in gens:
                assert algebra.contains(g)
            # idempotent
            again = generated_algebra(list(algebra.basis), dim=dim)
            assert again == algebra
            # monotone
            bigger = generated_algebra(gens + [Matrix.unit(dim, 0, 0)], dim=dim)
            assert bigger.contains_algebra(algebra)
            for built in (algebra, again, bigger):
                assert_equals_checked_build(built)

    def test_validation_rejects_non_closed_basis(self):
        for basis in (
            [diag(1, 0)],  # no identity
            [Matrix.identity(2), Matrix.unit(2, 0, 1)],  # no adjoint
            # the Pauli matrices x and z: their product is i times y
            [Matrix.identity(2), Matrix.unit(2, 0, 1) + Matrix.unit(2, 1, 0), diag(1, -1)],
        ):
            with pytest.raises(BadParameters, match="lacks the identity, an adjoint or a product"):
                StarAlgebra(2, basis)

    def test_validation_rejects_generators_outside_the_span(self):
        half = Fraction(1, 2)
        for basis, generator in (
            ([Matrix.identity(2), diag(1, 0)], Matrix([[half, half], [half, half]])),
            ([Matrix.identity(2)], diag(1, 0)),
        ):
            with pytest.raises(BadParameters, match="generator lies outside"):
                StarAlgebra(2, basis, generators=[generator])
        # inside the span, in any spelling, is accepted
        algebra = StarAlgebra(2, [Matrix.identity(2), diag(1, 0)], generators=[diag(0, 3)])
        assert algebra == generated_algebra([diag(1, 0)])

    def test_ambient_size_guard(self):
        # both input routes, at the limit and one past it
        limit = staralg.AMBIENT_MAX
        assert StarAlgebra(limit, [Matrix.identity(limit)]).dimension == 1
        assert generated_algebra([], dim=limit).dimension == 1
        for build in (
            lambda: StarAlgebra(limit + 1, [Matrix.identity(limit + 1)]),
            lambda: generated_algebra([], dim=limit + 1),
        ):
            with pytest.raises(SizeLimit) as info:
                build()
            assert info.value.what == "ambient matrix size"
            assert (info.value.value, info.value.limit) == (limit + 1, limit)

    def test_algebra_dimension_guard(self):
        # the superdiagonal units generate all 81 dimensions of the 9x9
        # matrices, which exceeds the supported algebra dimension
        gens = [Matrix.unit(9, i, i + 1) for i in range(8)]
        with pytest.raises(SizeLimit):
            generated_algebra(gens)

    def test_algebra_dimension_guard_on_both_routes(self):
        # M_8 has dimension 64, at the limit; M_8 + C inside the 9x9
        # matrices has 65, one past it
        limit = staralg.ALGEBRA_DIM_MAX
        assert limit == 64
        m8 = [Matrix.unit(8, i, j) for i in range(8) for j in range(8)]
        assert StarAlgebra(8, m8).dimension == limit
        assert generated_algebra([Matrix.unit(8, i, i + 1) for i in range(7)]).dimension == limit
        corner = [Matrix.unit(9, i, j) for i in range(8) for j in range(8)]
        for build in (
            lambda: StarAlgebra(9, corner + [Matrix.unit(9, 8, 8)]),
            lambda: generated_algebra(
                [Matrix.unit(9, i, i + 1) for i in range(7)] + [Matrix.unit(9, 8, 8)]
            ),
        ):
            with pytest.raises(SizeLimit) as info:
                build()
            assert info.value.what == "algebra dimension"
            assert (info.value.value, info.value.limit) == (limit + 1, limit)


class TestCommutativity:
    def test_diagonal_true(self):
        assert is_commutative(diagonal_algebra(3))

    def test_full_matrix_false(self):
        assert not is_commutative(generated_algebra([Matrix.unit(2, 0, 1)]))

    def test_generated_pair(self):
        algebra = generated_algebra([diag(1, 1, 0), diag(1, 0, 0)])
        assert is_commutative(algebra)


class TestMinimalProjections:
    def test_refinement_of_nested_projections(self):
        algebra = generated_algebra([diag(1, 1, 0), diag(1, 0, 0)])
        assert set(minimal_projections(algebra)) == {
            diag(1, 0, 0),
            diag(0, 1, 0),
            diag(0, 0, 1),
        }

    def test_scalars(self):
        algebra = generated_algebra([], dim=2)
        assert minimal_projections(algebra) == [Matrix.identity(2)]

    def test_projection_and_complement(self):
        algebra = generated_algebra([diag(1, 0)])
        assert set(minimal_projections(algebra)) == {diag(1, 0), diag(0, 1)}

    def test_rejects_noncommutative(self):
        with pytest.raises(NotCommutative):
            minimal_projections(generated_algebra([Matrix.unit(2, 0, 1)]))

    def test_rejects_non_projection_generators(self):
        with pytest.raises(GeneratorNotProjection):
            minimal_projections(generated_algebra([diag(1, 2)]))

    def test_off_diagonal_projection(self):
        half = Fraction(1, 2)
        p = Matrix([[half, half], [half, half]])
        algebra = generated_algebra([p])
        pieces = minimal_projections(algebra)
        assert len(pieces) == 2
        total = pieces[0] + pieces[1]
        assert total == Matrix.identity(2)
        assert (pieces[0] * pieces[1]).is_zero()


class TestSpectrum:
    def test_diagonal_three_characters(self):
        spec = spectrum(diagonal_algebra(3))
        assert len(spec.points) == 3

    def test_scalars_single_character(self):
        spec = spectrum(generated_algebra([], dim=2))
        assert len(spec.points) == 1

    def test_two_characters_separate_the_generator(self):
        algebra = generated_algebra([diag(1, 1, 0)])
        spec = spectrum(algebra)
        assert len(spec.points) == 2
        generator_values = set()
        column = [algebra.basis.index(b) for b in algebra.basis]
        for row in spec.table:
            generator_values.add(tuple(str(v) for v in row))
        assert len(generator_values) == 2

    def test_characters_reconstruct_the_basis(self):
        # each basis element is the character-weighted sum of the pieces
        for algebra in (diagonal_algebra(3), rotated_algebra(4), generated_algebra([], dim=2),
                        generated_algebra([diag(1, 1, 0)])):
            spec = spectrum(algebra)
            for j, b in enumerate(algebra.basis):
                total = Matrix.zero(algebra.dim)
                for q, row in zip(spec.projections, spec.table):
                    total = total + q * row[j]
                assert total == b


class TestCLattice:
    def test_diagonal_three(self):
        lattice = c_lattice(diagonal_algebra(3))
        assert lattice.n == 5
        assert lattice.payloads[lattice.bottom()].dimension == 1
        assert lattice.payloads[lattice.top()].dimension == 3

    def test_diagonal_four(self):
        assert c_lattice(diagonal_algebra(4)).n == 15

    def test_scalars(self):
        assert c_lattice(generated_algebra([], dim=2)).n == 1

    def test_order_isomorphic_to_partition_lattice(self):
        lattice = c_lattice(diagonal_algebra(3))
        reference = partition_lattice(3, ORIENT_SUBALGEBRA)
        assert lattice.elements == reference.elements
        assert lattice.up == reference.up

    def test_reuses_the_partition_lattice_masks(self, monkeypatch):
        # dn is derived once, for the partition lattice, and not again
        original = FinPoset.__init__
        calls = []

        def counted(self, *args, **kwargs):
            calls.append(args)
            original(self, *args, **kwargs)

        monkeypatch.setattr(FinPoset, "__init__", counted)
        lattice = c_lattice(diagonal_algebra(4))
        assert len(calls) == 1
        monkeypatch.undo()
        assert lattice.dn == FinPoset(lattice.elements, lattice.up).dn
        assert lattice.dn == partition_lattice(4, ORIENT_SUBALGEBRA).dn
        assert lattice.orientation == ORIENT_SUBALGEBRA

    def test_size_limit(self):
        # partition_lattice admits LATTICE_MAX points (tested there); c_lattice
        # on that many takes tens of seconds, so only one past it is run here
        with pytest.raises(SizeLimit) as info:
            c_lattice(diagonal_algebra(LATTICE_MAX + 1))
        assert info.value.what == "spectrum size"
        assert (info.value.value, info.value.limit) == (LATTICE_MAX + 1, LATTICE_MAX)


class TestCLatticeCertificate:
    @pytest.mark.parametrize("make", [diagonal_algebra, rotated_algebra])
    def test_containment_is_the_order(self, make):
        # the all-pairs containment route, kept as the oracle
        lattice = c_lattice(make(4))
        for i, j in itertools.product(range(lattice.n), repeat=2):
            contains = lattice.payloads[j].contains_algebra(lattice.payloads[i])
            assert contains == lattice.leq(i, j)

    @pytest.mark.parametrize(
        "make,k",
        [(diagonal_algebra, k) for k in range(1, 6)] + [(rotated_algebra, k) for k in (3, 4, 5)],
    )
    def test_nodes_equal_the_checked_build(self, make, k):
        for node in c_lattice(make(k)).payloads:
            assert_equals_checked_build(node)

    def test_rotation_leaves_the_lattice_unchanged(self):
        plain, rotated = c_lattice(diagonal_algebra(4)), c_lattice(rotated_algebra(4))
        assert rotated.elements == plain.elements
        assert rotated.up == plain.up
        assert rotated.payloads[rotated.top()] != plain.payloads[plain.top()]

    @pytest.mark.parametrize("k,covers", [(4, 31), (5, 160)])
    def test_containment_tests_are_the_covers(self, k, covers, monkeypatch):
        algebra = diagonal_algebra(k)
        original = StarAlgebra.contains_algebra
        calls = []

        def counted(self, other):
            calls.append(other)
            return original(self, other)

        monkeypatch.setattr(StarAlgebra, "contains_algebra", counted)
        lattice = c_lattice(algebra)
        assert len(calls) == len(lattice.covers()) == covers

    def _break_block_sums(self, monkeypatch, swap):
        original = staralg.block_sum_algebra

        def broken(sums, partition, dim):
            return original(sums, swap(partition), dim)

        monkeypatch.setattr(staralg, "block_sum_algebra", broken)

    def test_scalar_two_block_nodes_are_caught(self, monkeypatch):
        # passes the cover check; the dimension and distinctness checks see it
        def scalar(rel):
            return EqRel(rel.ground, [rel.ground]) if len(rel.classes) == 2 else rel

        self._break_block_sums(monkeypatch, scalar)
        with pytest.raises(AssertionFailed):
            c_lattice(diagonal_algebra(4))

    def test_swapped_nodes_are_caught(self, monkeypatch):
        # same dimensions, still distinct: only the cover check sees it
        a = EqRel(range(1, 5), [[1, 2], [3, 4]])
        b = EqRel(range(1, 5), [[1], [2, 3, 4]])

        def swap(rel):
            return {a: b, b: a}.get(rel, rel)

        self._break_block_sums(monkeypatch, swap)
        with pytest.raises(AssertionFailed, match="does not contain"):
            c_lattice(diagonal_algebra(4))


class TestBoundaryCheck:
    def test_no_checked_build_inside_the_package(self, monkeypatch):
        # the package's own builds are closed by construction: none of them
        # goes through the checked constructor
        algebra = rotated_algebra(4)
        original = StarAlgebra.__init__
        calls = []

        def counted(self, *args, **kwargs):
            calls.append(args)
            original(self, *args, **kwargs)

        monkeypatch.setattr(StarAlgebra, "__init__", counted)
        lattice = c_lattice(algebra)
        assert verify_caf_iso(algebra).size == lattice.n == 15
        assert generated_algebra(algebra.generators, algebra.dim) == algebra
        pieces = atoms(algebra)
        assert join(pieces[0], pieces[-1]).dimension == 3
        assert calls == []
        StarAlgebra(algebra.dim, algebra.basis, algebra.generators)
        assert len(calls) == 1


class TestProjectionSums:
    """Every sum of minimal projections comes from one 2^k table with one
    addition per nonzero mask; these pin the additions."""

    @staticmethod
    def count_additions(monkeypatch):
        original = Matrix.__add__
        calls = []

        def counted(self, other):
            calls.append(other)
            return original(self, other)

        monkeypatch.setattr(Matrix, "__add__", counted)
        return calls

    def test_table_entries_are_the_subset_sums(self):
        pieces = minimal_projections(rotated_algebra(4))
        sums = staralg._projection_sums(pieces, 4)
        assert len(sums) == 16 and sums[0] == Matrix.zero(4) and sums[15] == Matrix.identity(4)
        for mask, total in enumerate(sums):
            want = Matrix.zero(4)
            for i in range(4):
                if mask >> i & 1:
                    want = want + pieces[i]
            assert total == want

    @pytest.mark.parametrize("k,additions", [(4, 19), (5, 36), (6, 69)])
    def test_c_lattice_additions(self, k, additions, monkeypatch):
        # k in minimal_projections' sum check, 2^k - 1 in the table
        algebra = diagonal_algebra(k)
        calls = self.count_additions(monkeypatch)
        c_lattice(algebra)
        assert len(calls) == additions == 2 ** k - 1 + k

    def test_caf_iso_and_atoms_additions(self, monkeypatch):
        algebra = diagonal_algebra(5)
        calls = self.count_additions(monkeypatch)
        verify_caf_iso(algebra)
        assert len(calls) == 36  # 5 in minimal_projections, 31 in the one table
        calls.clear()
        atoms(algebra)
        assert len(calls) == 0  # the same instance keeps its table
        atoms(diagonal_algebra(5))
        assert len(calls) == 36

    def test_block_sum_algebra_adds_no_matrices(self, monkeypatch):
        algebra = rotated_algebra(4)
        sums = staralg._projection_sums(minimal_projections(algebra), 4)
        calls = self.count_additions(monkeypatch)
        for rel in partition_lattice(4, ORIENT_SUBALGEBRA).payloads:
            staralg.block_sum_algebra(sums, rel, 4)
        assert calls == []


def reference_atoms(algebra):
    """Every subset of the minimal projections that holds piece 0, in
    combinations order, each summed from zero."""
    projections = minimal_projections(algebra)
    k = len(projections)
    out = []
    for size in range(1, k):
        for subset in itertools.combinations(range(k), size):
            if 0 not in subset:
                continue
            total = Matrix.zero(algebra.dim)
            for index in subset:
                total = total + projections[index]
            out.append(generated_algebra([total], algebra.dim))
    return out


class TestAtoms:
    @pytest.mark.parametrize(
        "algebra", [diagonal_algebra(k) for k in range(2, 6)] + [rotated_algebra(4)]
    )
    def test_matches_the_reference_build(self, algebra):
        got, want = atoms(algebra), reference_atoms(algebra)
        assert [a.to_json_dict() for a in got] == [a.to_json_dict() for a in want]

    @pytest.mark.parametrize("k,count", [(2, 1), (3, 3), (4, 7)])
    def test_counts(self, k, count):
        assert len(atoms(diagonal_algebra(k))) == count

    def test_scalars_have_none(self):
        assert atoms(generated_algebra([], dim=2)) == []

    def test_size_limit(self):
        # 127 atoms at LATTICE_MAX; one point more is refused before any table
        assert len(atoms(diagonal_algebra(LATTICE_MAX))) == 2 ** (LATTICE_MAX - 1) - 1
        with pytest.raises(SizeLimit) as info:
            atoms(diagonal_algebra(LATTICE_MAX + 1))
        assert info.value.what == "spectrum size"
        assert (info.value.value, info.value.limit) == (LATTICE_MAX + 1, LATTICE_MAX)

    def test_atoms_are_two_dimensional(self):
        for atom in atoms(diagonal_algebra(4)):
            assert atom.dimension == 2

    def test_atoms_cover_the_bottom(self):
        algebra = diagonal_algebra(3)
        lattice = c_lattice(algebra)
        covers = {lattice.payloads[j] for i, j in lattice.covers() if i == lattice.bottom()}
        assert covers == set(atoms(algebra))


def join(c, d):
    """The subalgebra generated by two subalgebras' bases together."""
    return generated_algebra(list(c.basis) + list(d.basis), c.dim)


class TestJoinInAmbient:
    def test_join_of_atoms_is_everything(self):
        ambient = diagonal_algebra(3)
        a1 = generated_algebra([diag(1, 1, 0)], dim=3)
        a2 = generated_algebra([diag(1, 0, 0)], dim=3)
        joined = join(a1, a2)
        assert joined == ambient
        assert ambient.contains_algebra(joined)

    def test_join_idempotent_and_unit(self):
        ambient = diagonal_algebra(3)
        c = generated_algebra([diag(1, 1, 0)], dim=3)
        scalars = generated_algebra([], dim=3)
        assert join(c, c) == c
        assert join(scalars, c) == c

    def test_join_matches_lattice_lub(self):
        ambient = diagonal_algebra(3)
        lattice = c_lattice(ambient)
        for i, j in itertools.product(range(lattice.n), repeat=2):
            joined = join(lattice.payloads[i], lattice.payloads[j])
            expected = lattice.payloads[lub(lattice, [i, j])]
            assert joined == expected
            assert ambient.contains_algebra(joined)


class TestPushforward:
    def test_identity_map(self):
        part = collapse(3, {1, 2})
        mapping = {1: 1, 2: 2, 3: 3}
        assert pushforward_hom(mapping, part) == part

    def test_constant_map_gives_trivial_partition(self):
        part = collapse(3, {1, 2})
        image = pushforward_hom({1: 1, 2: 1}, part)
        assert image == EqRel.full((1, 2))

    def test_inclusion_example(self):
        part = collapse(3, {1, 2})
        image = pushforward_hom({1: 1, 2: 2}, part)
        assert image == EqRel((1, 2), [[1, 2]])

    def test_domain_is_the_sorted_keys(self):
        part = collapse(3, {1, 2})
        image = pushforward_hom({"b": 3, "c": 1, "a": 2}, part)
        assert image.ground == ("a", "b", "c")
        assert image == EqRel("abc", [["a", "c"], ["b"]])

    def test_not_total(self):
        part = collapse(3, {1, 2})
        with pytest.raises(NotTotal):
            pushforward_hom({1: 9, 2: 1}, part)

    def test_matches_the_checked_build_on_every_criterion_11_map(self):
        # reference: bucket the target points by the least member of their
        # image's class and build the relation through the checked EqRel
        lattices = {n: partition_lattice(n, ORIENT_SUBALGEBRA).payloads for n in range(1, 5)}
        built = 0
        for nx, ny in itertools.product(range(1, 5), repeat=2):
            ys = list(range(1, ny + 1))
            for values in itertools.product(range(1, nx + 1), repeat=ny):
                mapping = dict(zip(ys, values))
                for part in lattices[nx]:
                    buckets = {}
                    for y in ys:
                        buckets.setdefault(class_of(part, mapping[y])[0], []).append(y)
                    checked = EqRel(ys, buckets.values())
                    image = pushforward_hom(mapping, part)
                    assert image == checked and hash(image) == hash(checked)
                    assert image.classes == checked.classes
                    assert image._labels == checked._labels
                    built += 1
        assert built == 5764

    def test_monotone(self):
        lattice = partition_lattice(3, ORIENT_SUBALGEBRA)
        mapping = {1: 1, 2: 1, 3: 2}
        for i, j in itertools.product(range(lattice.n), repeat=2):
            if lattice.leq(i, j):
                a = pushforward_hom(mapping, lattice.payloads[i])
                b = pushforward_hom(mapping, lattice.payloads[j])
                assert b.refines(a)


class TestPullbackAdjoint:
    def surjections(self, ny, nx):
        ys = range(1, ny + 1)
        for values in itertools.product(range(1, nx + 1), repeat=ny):
            if set(values) == set(range(1, nx + 1)):
                yield dict(zip(ys, values))

    def test_galois_connection(self):
        # pushforward(P) <= Q in the subalgebra order iff P <= pullback(Q),
        # pair by pair on every map between spectra of at most four points:
        # the reference for criterion 11's mask form
        lattices = {n: partition_lattice(n, ORIENT_SUBALGEBRA).payloads for n in range(1, 5)}
        pairs = 0
        for nx, ny in itertools.product(range(1, 5), repeat=2):
            xs, ys = tuple(range(1, nx + 1)), range(1, ny + 1)
            source, target = lattices[nx], lattices[ny]
            for values in itertools.product(xs, repeat=ny):
                mapping = dict(zip(ys, values))
                pushed = [pushforward_hom(mapping, p) for p in source]
                pulled = [pullback_adjoint(mapping, q, xs) for q in target]
                for (p, push_p), (q, pull_q) in itertools.product(
                    zip(source, pushed), zip(target, pulled)
                ):
                    assert q.refines(push_p) == pull_q.refines(p)
                    pairs += 1
        assert pairs == 70398

    def test_is_the_union_closure_of_image_pairs(self):
        # reference: the image pairs of each class through the bucket build,
        # which shares no union-find with pullback_adjoint, on every
        # criterion 11 map with a reversed source ground
        lattices = {n: partition_lattice(n, ORIENT_SUBALGEBRA).payloads for n in range(1, 5)}
        built = 0
        for nx, ny in itertools.product(range(1, 5), repeat=2):
            xs = tuple(range(nx, 0, -1))
            for values in itertools.product(xs, repeat=ny):
                mapping = dict(zip(range(1, ny + 1), values))
                for rel in lattices[ny]:
                    pairs = [(mapping[cls[0]], mapping[y]) for cls in rel.classes for y in cls]
                    pulled = pullback_adjoint(mapping, rel, xs)
                    reference = from_pairs_by_buckets(xs, pairs)
                    assert pulled == reference and hash(pulled) == hash(reference)
                    assert pulled._labels == reference._labels
                    built += 1
        assert built == 5880

    def test_sorts_the_source_ground_once(self, monkeypatch):
        sorts = []

        def counted(iterable, **kwargs):
            sorts.append(iterable)
            return sorted(iterable, **kwargs)

        full, expected = EqRel.full((1, 2, 3)), EqRel((1, 2, 3), [[1, 3], [2]])
        for module in (staralg, partitions):
            monkeypatch.setattr(module, "sorted", counted, raising=False)
        assert pullback_adjoint({1: 3, 2: 1, 3: 3}, full, (3, 2, 1)) == expected
        assert sorts == [(3, 2, 1)]

    def test_duplicate_source_points(self):
        with pytest.raises(BadParameters):
            pullback_adjoint({1: 1, 2: 2}, EqRel.full((1, 2)), (1, 2, 2))

    def test_ground_mismatch(self):
        with pytest.raises(GroundMismatch):
            pullback_adjoint({1: 1, 2: 2}, EqRel((1, 2, 3), [[1, 2], [3]]), (1, 2))
        with pytest.raises(GroundMismatch):
            pullback_adjoint({1: 1, 2: 2, 3: 1}, EqRel.full((1, 2)), (1, 2))

    def test_not_total(self):
        # a point alone in its class is checked too, though it adds no pair
        with pytest.raises(NotTotal):
            pullback_adjoint({1: 1, 2: 9}, EqRel.diagonal((1, 2)), (1, 2))
        with pytest.raises(NotTotal):
            pullback_adjoint({1: 1, 2: 9}, EqRel.full((1, 2)), (1, 2))

    def test_adjoint_preserves_directed_sups_for_surjections(self):
        # surjective point map = injective algebra map; the adjoint must be
        # continuous, which on finite instances reduces to preserving the
        # sup of every principal downset
        for nx in (2, 3):
            for ny in (nx, nx + 1):
                source = partition_lattice(ny, ORIENT_SUBALGEBRA)
                targets = partition_lattice(nx, ORIENT_SUBALGEBRA)
                target_index = {rel: i for i, rel in enumerate(targets.payloads)}
                xs = tuple(range(1, nx + 1))
                for mapping in self.surjections(ny, nx):
                    image = [
                        target_index[pullback_adjoint(mapping, rel, xs)]
                        for rel in source.payloads
                    ]
                    for m in range(source.n):
                        mask = 0
                        for i in range(source.n):
                            if source.leq(i, m):
                                mask |= 1 << image[i]
                        assert targets.lub_mask(mask) == image[m]
