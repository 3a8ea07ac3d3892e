"""Photon statistics of a dipole emitter in a scatterer-coupled bimodal cavity.

Library layout:

* params       -- SystemParams (all rates in one frequency unit)
* fock         -- truncated composite space and elementary operators
* dynamics     -- Hamiltonians and the Lindblad generator (cached affine table)
* steadystate  -- steady-state solve plan and solve, photon numbers, g2(0)
* weakdrive    -- two-excitation ansatz, closed-form amplitudes and g2(0),
                  linear-response transmission/reflection spectra, scatterer coupling
* sweep        -- parameter sweeps, figure presets, CSV output
* cli          -- command-line entry point (``bicavity``)
"""

__version__ = "0.1.0"

from .errors import (
    AnalyticSingularityError,
    BicavityError,
    DegenerateSteadyStateError,
    InvalidTruncationError,
    SteadyStateSolverError,
    SweepError,
    UndefinedCorrelationError,
    WeakDriveDomainError,
)
from .params import SystemParams, reference_baseline
from .fock import (
    FockSpace,
    annihilator,
    build_space,
    emitter_excitation_projector,
    emitter_lowering,
    pauli_z,
)
from .steadystate import (
    DensityMatrix,
    Superoperator,
    TruncationReport,
    check_truncation,
    g2_zero,
    liouvillian,
    master_equation_g2,
    mean_photon,
    solve_steady,
    steady_state,
)
from .weakdrive import (
    AmplitudeSet,
    ScattererSpec,
    c_amplitudes_closed_form,
    g2_closed_form,
    g2_ratio_asymptotic,
    scatterer_coupling,
    solve_weak_drive,
    spectrum,
)
from .sweep import (
    ERROR_CODES,
    Axis,
    FIGURE_NAMES,
    ResultTable,
    SweepSpec,
    emit_csv,
    figure_preset,
    linear_axis,
    read_csv,
    run_sweep,
    value_axis,
)

__all__ = [name for name in dir() if not name.startswith("_")]
