"""kglab: a desk-scale spectral laboratory for quasilinear Klein-Gordon equations.

The package measures, on periodic boxes, the quantitative behavior of
the objects a dispersive-PDE argument manipulates symbolically: dyadic
projectors and their constants, Weyl paradifferential operators and
remainders, resonance phases and pseudoproduct bounds, good-unknown
reformulations, and the slow growth/decay laws of weighted norms along
actual numerical solutions.  Estimates with dimensional constants are
measured and reported; identities and scaling laws are asserted.
"""

from .cutoffs import psi, psi_band, psi_le, psi_range
from .grid import Field, Grid, make_grid
from .spectral import (
    dealias,
    dealiased_product,
    derivative,
    lambda_power,
    laplacian,
    lp_interval,
    lp_low,
    lp_project,
    q_shell,
    semigroup,
)
from .data import envelope_field, gaussian_bump, make_rng, random_band_field
from .nonlinearity import NonlinearitySpec, default_spec
from .paradiff import Symbol, error_op, remainder, weyl_apply
from .resonance import (
    Pseudoproduct,
    a_kernel,
    b_kernel,
    bilinear_apply,
    phase_bound_scan,
    resonant_kernel,
    trilinear_apply,
)
from .norms import holder_sup, loglog_fit, sobolev, weighted_l2
from .dynamics import (
    KGState,
    duhamel_check,
    good_unknown,
    normal_form_boundary,
    reduced_equation_residual,
    rhs,
    run_to_time,
    scattering_limit,
    step,
    step_limit,
)
from .config import ExperimentConfig, load_config, parse_config
from .reports import RunReport, write_report
from .experiments import acceptance_battery, pinned_config, run_experiment

__version__ = "0.1.0"
