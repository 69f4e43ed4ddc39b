"""friedzeta: dynamical zeta functions from periodic-orbit data.

Computes twisted flow zetas, graded and Selberg zeta functions over
suspension flows of hyperbolic toral automorphisms and Kleinian length
spectra, continues the flow zeta to the spectral parameter 0 through
cycle-expansion determinants, computes Reidemeister torsion of based
acyclic complexes and mapping tori, and verifies the identities tying
these together at desk scale.
"""

from .characters import (
    IrrepLabel,
    TorusElement,
    branching_check,
    casimir_constant,
    char_nu,
    char_sigma,
    dim_sigma,
    symmetric_trace_expansion,
    tensor_decomposition_check,
)
from .continuation import CycleZeta, DynamicalDeterminant, cycle_zeta, dynamical_determinant, zeta_at_zero
from .errors import (
    CapacityError,
    ConvergenceError,
    FriedzetaError,
    NotAcyclicError,
    NotLoxodromicError,
    ResonanceAtZeroError,
    ValidationError,
)
from .kleinian import (
    ComplexLengthRecord,
    CyclicWord,
    MobiusGenerator,
    complex_length,
    enumerate_conjugacy_classes,
    poincare_data,
    read_spectrum,
    schottky_spectrum,
    synthetic_spectrum,
    write_spectrum,
)
from .ledgers import condition_enumerate, resonance_multiplicity_ledger, selberg_order_ledger
from .toral import (
    Character,
    OrbitDump,
    OrbitRecord,
    SuspensionModel,
    ToralAutomorphism,
    fixed_points,
    homology_class,
    orbit_records,
    orientation_index,
    primitive_orbits,
    read_orbit_dump,
    validate_anosov,
    write_orbit_dump,
)
from .torsion import (
    BasedChainComplex,
    TorsionValue,
    chain_torsion,
    fried_check,
    is_acyclic,
    mapping_cone_complex,
    mapping_torus_torsion,
)
from .trig import TrigPolynomial
from .variation import direct_quotient, variation_rhs, wedge_derivative_check
from .zetas import (
    OrbitColumns,
    TruncationPolicy,
    ZetaValue,
    assemble_ruelle_from_graded,
    factorization_check,
    factorization_residual_curve,
    graded_log_zeta,
    orbit_columns,
    ruelle_log_zeta,
    selberg_log_zeta,
)

__version__ = "0.1.0"
