"""Analysis toolkit for thermodynamic binding networks (TBNs).

Computes, enumerates and verifies stable configurations via an exact
integer-programming formulation, computes the polymer basis (Hilbert basis
of the self-saturation cone), and searches merge/split kinetic pathways.
"""

from .core import (
    INF,
    Configuration,
    Monomer,
    ParseReport,
    PartialConfiguration,
    Polymer,
    SiteType,
    Tbn,
    TbnError,
    TbnSyntaxError,
    TbnValidationError,
    exposed_sites,
    is_self_saturated,
    merge_count,
    parse_tbn,
    parse_tbn_with_report,
    polymer_from_monomers,
    render_tbn,
)

from .hilbert import (
    brute_force_hilbert,
    decompose,
    hilbert_basis,
    polymer_basis,
    stable_via_basis,
)
from .pathways import (
    FullConfiguration,
    Pathway,
    all_singletons,
    find_pathway,
    full_configuration,
    is_locally_stable,
    splits,
)
from .solver import (
    Budget,
    BudgetExhausted,
    EnumerationResult,
    StableOptions,
    brute_force_stable,
    stable_configs,
)

__version__ = "0.1.0"

__all__ = [
    "Budget",
    "BudgetExhausted",
    "EnumerationResult",
    "FullConfiguration",
    "Pathway",
    "StableOptions",
    "all_singletons",
    "brute_force_hilbert",
    "brute_force_stable",
    "decompose",
    "find_pathway",
    "full_configuration",
    "hilbert_basis",
    "is_locally_stable",
    "polymer_basis",
    "splits",
    "stable_configs",
    "stable_via_basis",
    "INF",
    "Configuration",
    "Monomer",
    "ParseReport",
    "PartialConfiguration",
    "Polymer",
    "SiteType",
    "Tbn",
    "TbnError",
    "TbnSyntaxError",
    "TbnValidationError",
    "exposed_sites",
    "is_self_saturated",
    "merge_count",
    "parse_tbn",
    "parse_tbn_with_report",
    "polymer_from_monomers",
    "render_tbn",
    "__version__",
]
