"""The public names of the package, pinned so that adding or removing one
shows in the diff of this list."""

import types

import ostro_stab

PUBLIC_NAMES = [
    "CollisionEvent",
    "CollisionInterval",
    "CollisionPair",
    "ConvergenceFailure",
    "DiscriminantResult",
    "DivisionByZero",
    "DomainError",
    "NoCollision",
    "NotACollision",
    "NotUnstable",
    "OrderNotAnalyzed",
    "PhysicalParams",
    "ReducedPencil",
    "ResonantWavenumber",
    "Singularity",
    "SpectrumSlice",
    "StokesWave",
    "TruncationConfig",
    "WrongDispersionSign",
    "XiOutOfRange",
    "assemble_L_matrix",
    "assemble_matrix",
    "collision_K",
    "collision_events",
    "collision_interval",
    "collision_wavenumber",
    "collision_xi",
    "default_xi_grid",
    "discriminant_dn1",
    "eigenvalue_shifts",
    "eigenvalues",
    "enumerate_collision_pairs",
    "eval_profile",
    "eval_speed",
    "harmonic_amplitudes",
    "instability_threshold_dn1",
    "krein_signature",
    "max_growth",
    "omega",
    "origin_collisions",
    "phase_speed_c0",
    "predicted_growth_rate",
    "reduced_pencil",
    "residual_F",
    "spectrum_slice",
    "stokes_coefficients",
]


def test_public_names_pinned():
    names = sorted(name for name, value in vars(ostro_stab).items()
                   if not name.startswith("_")
                   and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_NAMES
