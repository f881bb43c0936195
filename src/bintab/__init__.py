"""Association parameters of k-variable binary contingency tables.

Evaluate parity-contrast association parameters (LOR, DI, EX and friends)
on 2^k tables, convert tables to and from the full per-margin parameter
system, reduce tables to their odds-ratio canonical form, decompose them
into sign-structured components, detect Simpson's paradox, and compute
sign-decision probabilities under multinomial sampling.
"""

from ._version import __version__
from .errors import (
    BintabError,
    ConvergenceError,
    EvaluationError,
    InvalidTableError,
    NonRealizableParamsError,
)
from .table import (
    BinaryTable,
    Cell,
    cell_to_index,
    collapse,
    index_to_cell,
    marginal,
    parity,
    parity_signs,
    rescale_conditional_pair,
    slice_table,
    swap_category,
)
from .assoc import (
    AggregateContrastKind,
    AssociationKind,
    BAHADUR,
    BahadurKind,
    ContrastKind,
    DI,
    EX,
    LOR,
    SIGN_TAU,
    aggregate_contrast,
    bahadur,
    contrast,
    di,
    evaluate,
    ex,
    lor,
    magnitude_scale,
    odds_ratio,
    resolve_kind,
    sign,
    thresholded_sign,
)
from .paramset import (
    ParamSet,
    di_forward_fast,
    di_inverse,
    full_params,
    fwht,
    lor_inverse,
    masks_by_dimension,
)
from .structure import CanonicalTrace, Decomposition, canonicalize, decompose, recompose
from .collapsibility import (
    CollapseReport,
    PropertyBatterySummary,
    collapse_check,
    paradox_search,
    property_battery,
    random_table,
    simpson_scan,
)
from .sampling import (
    even_parity_mass,
    prob_di_positive_exact,
    prob_di_positive_normal,
    simulate_decisions,
    table_with_even_mass,
)
from .io import (
    battery_to_dict,
    collapse_report_to_dict,
    decomposition_to_dict,
    load_paramset,
    load_table,
    paramset_from_dict,
    paramset_to_dict,
    report_envelope,
    save_paramset,
    save_table,
    table_from_dict,
    table_to_dict,
    trace_to_dict,
)

__all__ = [name for name in dir() if not name.startswith("_")] + ["__version__"]
