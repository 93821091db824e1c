"""Recovery of a real square signal from its 2D autocorrelation.

The 2D problem is reduced to the 1D autocorrelation of the row-flattened
signal, whose candidates differ by flipping polynomial zero pairs. The
grid's corner entry, or past eight flip units its last lag row, picks out
the few candidates worth expanding, and the grid entries that the reduction
sums away decide among them: the true signal, up to sign and half-turn
rotation.
"""

import types

from .core import (
    Autocorr1D,
    Autocorr2D,
    MagnitudeGrid,
    Matrix2D,
    Signal1D,
    autocorr_1d,
    autocorr_2d,
    fourier_magnitude_2d,
    measurements_to_autocorr_2d,
    reshape_rowwise,
    trivially_equivalent_1d,
    trivially_equivalent_2d,
    vectorize_rowwise,
)
from .errors import (
    AsymmetricInput,
    AutophaseError,
    DegenerateSize,
    InvalidOversampling,
    LengthMismatch,
    NoMatch,
    NotAnAutocorrelation,
    ResidualExceeded,
    RootFindingFailed,
    SearchSpaceTooLarge,
    UnitCircleZero,
    UnpairedComplexZero,
    ZeroEndpoint,
)
from .oracle import OracleResult, exhaustive_integer_search, planted_roundtrip
from .polyfactor import (
    Candidates,
    ConjugatePair,
    FlipUnits,
    RealZero,
    ZeroPairing,
    associated_polynomial,
    elementary_symmetric,
    find_zero_pairs,
    group_flip_units,
)
from .reduction import key_constraint, reduce_2d_to_1d, verify_reduction
from .solver import (
    CensusData,
    ProbeResult,
    SolveReport,
    SolverOptions,
    ambiguity_census,
    asymptotic_probe,
    enumerate_candidates,
    filter_by_constraint,
    solve_2d,
)

__version__ = "0.1.0"

# Every public name imported above, in import order; submodules are left out.
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
]
