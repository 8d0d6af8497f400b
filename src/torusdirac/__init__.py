"""Dirac operator on a torus under external fields: geometry, operators,
pseudo-supersymmetric factorization, closed-form spectra, and the numerical
oracles that certify them."""

from .geometry import (
    ChristoffelSet,
    TorusParams,
    christoffel_at,
    christoffel_fd_oracle,
    metric_at,
    radius_profile,
    spin_connection_derived,
    spin_connection_tabulated,
    vierbein_at,
)
from .grids import Grid
from .fields import (
    GaugeField,
    eval_fermi_velocity,
    eval_gauge,
    hermitizing_quadratic_field,
    linear_ring_field,
    quadratic_ring_field,
    zero_field,
)
from .operators import (
    SampledOp,
    decouple_constant_vf,
    decouple_pdfv,
    dirac_operator,
    hermiticity_defect,
    squaring_discrepancy,
)
from .pseudoherm import (
    MathieuParams,
    eta2_case1,
    eta2_case2,
    hermitian_counterpart_case1,
    intertwining_residual,
    mathieu_form,
    partner_potentials_case1,
    rosen_morse_form,
    superpotential_case1,
    veff_case2,
)
from .analytic import (
    Case2Solution,
    case1_energy,
    case1_transform_chain,
    case1_wavefunction,
    case2_levels,
    case2_ode_residual,
    case2_quantize,
    case2_wavefunction,
    gauss_2f1,
    laguerre_gen,
    morse_energy_exact,
)
from .numerics import (
    EigResult,
    TridiagonalSym,
    discretize_schrodinger,
    eig_sym_tridiag,
    half_line_levels,
    hill_eigenvalues,
    integrate_simpson,
    rosen_morse_levels,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
