"""Spectral stability of small-amplitude periodic Ostrovsky waves.

Builds the small-amplitude traveling-wave expansion, locates and
classifies eigenvalue collisions of the Floquet-Bloch linearization
(Krein signatures, collision wavenumber intervals, instability
discriminants), and cross-checks every analytical prediction against a
truncated-Fourier spectral computation.
"""

from .dispersion import (
    CollisionEvent,
    CollisionInterval,
    CollisionPair,
    collision_K,
    collision_events,
    collision_interval,
    collision_wavenumber,
    collision_xi,
    enumerate_collision_pairs,
    krein_signature,
    omega,
    origin_collisions,
)
from .errors import (
    ConvergenceFailure,
    DivisionByZero,
    DomainError,
    NoCollision,
    NotACollision,
    NotUnstable,
    OrderNotAnalyzed,
    ResonantWavenumber,
    Singularity,
    WrongDispersionSign,
    XiOutOfRange,
)
from .hill import (
    SpectrumSlice,
    TruncationConfig,
    assemble_L_matrix,
    assemble_matrix,
    default_xi_grid,
    eigenvalues,
    max_growth,
    spectrum_slice,
)
from .reduced import (
    DiscriminantResult,
    ReducedPencil,
    discriminant_dn1,
    eigenvalue_shifts,
    instability_threshold_dn1,
    predicted_growth_rate,
    reduced_pencil,
)
from .stokes import (
    PhysicalParams,
    StokesWave,
    eval_profile,
    eval_speed,
    harmonic_amplitudes,
    phase_speed_c0,
    residual_F,
    stokes_coefficients,
)

__version__ = "0.1.0"
