"""Exception types shared across the package."""


class NonExactDivisionError(ArithmeticError):
    """Polynomial long division left a nonzero remainder where exactness was required."""


class PolynomialZeroDivisionError(ZeroDivisionError):
    """Division by the zero polynomial."""


class ParentMismatchError(ValueError):
    """Mixed elements of two different quotient algebras."""


class NotQuadraticIrrational(ValueError):
    """A degree-2 polynomial turned out to have rational roots."""


class NonPeriodicError(RuntimeError):
    """Orbit iteration failed to return to its start within the step budget."""


class DegreeGuardError(ValueError):
    """Requested dynatomic or parsed polynomial degree exceeds the desk-scale guard."""


class ConsistencyError(AssertionError):
    """Two independent decision methods disagreed; indicates an implementation bug."""
