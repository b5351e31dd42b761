"""Internal entanglement versus external correlations: measures and bounds."""

__version__ = "0.1.0"

from .bounds import (
    LN2,
    BoundCurve,
    beta_deform,
    bound_curve,
    g_d_numeric,
    renyi_threshold,
    spectrum_at_f,
    threshold,
    u,
    v,
    w_pm,
    xi_ef,
    zeta_ef,
)
from .correlations import (
    MonotoneKind,
    c_distance_numeric,
    c_max,
    c_on_pure,
    f_db,
    f_dh,
    f_mi,
    f_tilde,
    f_value,
    mutual_information,
)
from .measures import (
    concurrence,
    entanglement_of_formation,
    is_abs_separable_2xd,
    is_zhsl_separable,
    max_concurrence,
    max_ef_over_spectrum_numeric,
    max_ef_state,
    negativity,
    s22_ef,
)
from .qcore import (
    BipartiteSplit,
    CapacityError,
    DomainError,
    bures_distance,
    cc_state,
    haar_pure,
    haar_unitary,
    hellinger_distance,
    hermitian_eig,
    majorizes,
    matrix_sqrt_psd,
    mems_state,
    partial_trace,
    purify,
    purity,
    random_density,
    random_spectrum,
    schmidt,
    shannon_entropy,
    spectrum,
    strictly_correlated_cc,
    von_neumann_entropy,
    worker_rng,
    worker_seed,
)

__all__ = [name for name in dir() if not name.startswith("_")]
