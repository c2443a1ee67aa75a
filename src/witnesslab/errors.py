"""Exception types raised across the package."""


class WitnessLabError(Exception):
    """Base class for all witnesslab errors."""


class DimensionMismatch(WitnessLabError):
    """Operands act on Hilbert spaces of incompatible dimension."""


class DimensionCap(WitnessLabError):
    """A dense full-space object would exceed ``linalg.DIMENSION_CAP``, or a
    matrix side ``linalg.MATRIX_SIDE_CAP``."""


class NonHermitian(WitnessLabError):
    """An operator required to be Hermitian is not, beyond tolerance."""


class NegativeSpectrum(WitnessLabError):
    """An operator required to be positive semidefinite has a genuinely negative eigenvalue."""


class NumericalOverflow(WitnessLabError):
    """A condition's side is not finite in double precision."""


class BadParameter(WitnessLabError):
    """A state-family or sweep parameter is missing, malformed, or out of range."""


class TruncationTooCoarse(WitnessLabError):
    """A Fock-space cutoff leaves more tail weight than the configured tolerance."""


class MissingParameter(WitnessLabError):
    """A closed-form evaluation was not given every symbol it needs."""


class NoSignChange(WitnessLabError):
    """A bisection bracket has the same margin sign at both ends."""


class InvalidDensityMatrix(WitnessLabError):
    """A matrix passed as a density matrix is not unit-trace Hermitian PSD."""
