"""Exception types shared across the package."""


class FprlabError(Exception):
    """Base class for every package-specific error."""


# signal domain

class ImaginaryResidueExceeded(FprlabError):
    """Trigonometric sum that should be real carries too much imaginary part."""


class InsufficientSamples(FprlabError):
    """Fewer spectrum samples than needed to determine the autocorrelation."""


class NonUniformGrid(FprlabError):
    """Sample angles do not form the uniform grid 2*pi*j/M."""


# z-transform / factorization

class ZeroArgument(FprlabError):
    """z = 0 is outside the domain of a Laurent evaluation with N > 1."""


class DegenerateLeadingLag(FprlabError):
    """r(N-1) = 0, so the factorization polynomial loses its degree."""


class NonConvergence(FprlabError):
    """Polished roots failed the residual bound."""


class UnpairableRoots(FprlabError):
    """Root multiset is not closed under conjugate reciprocation."""


class OddUnitCircleMultiplicity(FprlabError):
    """A root on the unit circle appears with odd multiplicity."""


# ambiguity

class EnumerationBudgetExceeded(FprlabError):
    """2^(N-1) selections is past the enumeration budget."""


class ZeroSignal(FprlabError):
    """The all-zero signal has no canonical representative."""


class ZeroAnchor(FprlabError):
    """An anchor x(0) whose |x(0)|^2 is 0 or overflows in double precision cannot anchor a solution."""


class NoFeasibleSolution(FprlabError):
    """No root selection is consistent with the anchor."""


# solvers

class StepDiverged(FprlabError):
    """Gradient iteration blew up past the divergence guard."""


# hardness

class BudgetExceeded(FprlabError):
    """Exhaustive search past its instance-size budget."""


class OverflowBeyondPrecision(FprlabError):
    """Constructed instance would not survive float conversion exactly."""


class InvalidWitness(FprlabError):
    """Index set does not satisfy the product identity."""


class HypothesisViolated(FprlabError):
    """Perturbation is larger than the bound the margin analysis assumes."""


class SolverFailure(FprlabError):
    """Solver returned no iterate."""


# cli

class ParseError(FprlabError):
    """Instance file is not valid JSON or violates the schema."""


class KindMismatch(FprlabError):
    """Instance file kind is not the one the command needs."""


class UnknownSolver(FprlabError):
    """Solver name not in the registry."""
