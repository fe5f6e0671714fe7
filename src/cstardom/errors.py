"""Exception types shared across the package, and its table of size guards.

Validation failures carry the offending indices/elements as attributes so
callers (and tests) can re-check the reported witness.  Every size guard is
a row of :data:`LIMITS`, raised by :func:`check_size`.
"""


class CstardomError(Exception):
    """Base class for all package-specific errors."""


# ---------------------------------------------------------------------------
# poset construction / queries


class NotReflexive(CstardomError):
    def __init__(self, i):
        super().__init__(f"order table not reflexive at index {i}")
        self.index = i


class NotAntisymmetric(CstardomError):
    def __init__(self, i, j):
        super().__init__(f"order table not antisymmetric on pair ({i}, {j})")
        self.pair = (i, j)


class NotTransitive(CstardomError):
    def __init__(self, i, j, k):
        super().__init__(f"order table not transitive on triple ({i}, {j}, {k})")
        self.triple = (i, j, k)


class ElementNotInPoset(CstardomError):
    def __init__(self, element):
        super().__init__(f"element {element!r} is not in the poset")
        self.element = element


# ---------------------------------------------------------------------------
# size / range guards


class SizeLimit(CstardomError):
    """``value`` lies outside ``minimum``..``limit``; ``limit`` is always the
    maximum, and ``minimum`` is None where only the maximum is guarded."""

    def __init__(self, what, value, limit, minimum=None):
        if minimum is not None and value < minimum:
            message = f"{what} = {value} is below the supported minimum {minimum}"
        else:
            message = f"{what} = {value} exceeds the supported limit {limit}"
        super().__init__(message)
        self.what, self.value, self.limit, self.minimum = what, value, limit, minimum


#: guard name -> (what, minimum, limit); a minimum of None guards the
#: maximum alone
LIMITS = {
    # 2^n directed subsets: the traced peak at 15 is 1.6 MB on an antichain
    # and 5.6 MB on a chain, whose subsets are all kept
    "oracle": ("poset size for directed enumeration", None, 15),
    "lattice": ("partition lattice ground size", 1, 8),  # Bell(8) = 4140 nodes
    "omp": ("orthomodular poset size", None, 32),  # Boolean-subalgebra search
    "ambient": ("ambient matrix size", None, 16),
    "algebra": ("algebra dimension", None, 64),
    "depth": ("depth", 0, 10),  # truncation depths: 2^depth blocks
    "grid": ("grid resolution", 0, 8),  # the grid k/3^m has 3^m + 1 points
    # build time and the ``cantor chain`` report grow linearly in the count
    "chain": ("chain witness count", 2, 4096),
    "exponent": ("ordinal exponent", 0, 9),  # desk scale
}
# the projections of a k-point spectrum form a 2^k-element power set, which
# verify_caf_iso's Boolean-subalgebra search must admit
LIMITS["caf"] = ("spectrum size", None, LIMITS["omp"][2].bit_length() - 1)
# c_lattice and atoms build the spectrum's partition lattice
LIMITS["spectrum"] = ("spectrum size", None, LIMITS["lattice"][2])


def check_size(name, value):
    """SizeLimit unless ``value`` lies within the :data:`LIMITS` row ``name``."""
    what, minimum, limit = LIMITS[name]
    if value > limit or (minimum is not None and value < minimum):
        raise SizeLimit(what, value, limit, minimum)


class OutOfRange(CstardomError):
    pass


class BadParameters(CstardomError):
    pass


# ---------------------------------------------------------------------------
# equivalence relations / interval relations


class GroundMismatch(CstardomError):
    pass


class GridTooCoarse(CstardomError):
    def __init__(self, endpoint, resolution):
        super().__init__(
            f"endpoint {endpoint} does not lie on the grid of resolution 3^-{resolution}"
        )
        self.endpoint, self.resolution = endpoint, resolution


class AssertionFailed(CstardomError):
    def __init__(self, detail):
        super().__init__(f"verification assertion failed: {detail}")
        self.detail = detail


# ---------------------------------------------------------------------------
# matrix *-algebras


class DimMismatch(CstardomError):
    pass


class NotCommutative(CstardomError):
    pass


class GeneratorNotProjection(CstardomError):
    def __init__(self, generator):
        super().__init__("generator is not a projection (needs p*p == p == p^*)")
        self.generator = generator


class NotTotal(CstardomError):
    pass


# ---------------------------------------------------------------------------
# orthomodular posets


class AxiomViolated(CstardomError):
    def __init__(self, axiom, witness):
        super().__init__(f"axiom {axiom!r} violated by {witness!r}")
        self.axiom, self.witness = axiom, witness


class IsoFailure(CstardomError):
    def __init__(self, witness):
        super().__init__(f"order isomorphism check failed: {witness!r}")
        self.witness = witness


# ---------------------------------------------------------------------------
# CLI


class ParseError(CstardomError):
    pass
