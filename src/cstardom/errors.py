"""Exception types shared across the package.

Validation failures carry the offending indices/elements as attributes so
callers (and tests) can re-check the reported witness.
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
