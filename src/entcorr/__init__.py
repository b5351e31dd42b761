"""Internal entanglement versus external correlations: measures and bounds."""

__version__ = "0.1.0"

from .bounds import (
    LN2,
    BoundCurve,
    bound_curve,
    g_d_numeric,
    spectrum_at_f,
    threshold,
    u,
    v,
    xi_ef,
    zeta_ef,
)
from .correlations import (
    MonotoneKind,
    c_distance_numeric,
    c_max,
    c_on_pure,
    f_value,
    mutual_information,
)
from .measures import (
    concurrence,
    entanglement_of_formation,
    max_concurrence,
    max_ef_over_spectrum_numeric,
    max_ef_state,
    negativity,
    s22_ef,
)
from .qcore import (
    CapacityError,
    DomainError,
    bures_distance,
    haar_pure,
    haar_unitary,
    hellinger_distance,
    matrix_sqrt_psd,
    partial_trace,
    purify,
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
