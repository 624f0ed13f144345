"""Exact divisorial singularity invariants on blow-up towers.

The package computes discrepancies, log discrepancies, lct and mld data
for blow-up towers over affine space, over prime fields and over the
rationals, and machine-checks that coefficient-wise lifting from
characteristic p to characteristic 0 preserves the relevant numbers.
"""

from . import errors
from .bridge import (
    BridgeCase,
    BridgeReport,
    CrossCharCell,
    CrossCharReport,
    acceptance_corpus,
    bridge_construct,
    build_case,
    cross_characteristic_suite,
    lift_tower,
    shifted_log_discrepancy_check,
)
from .invariants import (
    LctWitness,
    LogDiscrepancyReport,
    NotLogCanonicalCertificate,
    certify_not_log_canonical,
    lct_witness,
    log_discrepancy,
    realize_toric_weight,
    toric_weight_search,
)
from .jets import (
    JetSystem,
    StepBudget,
    compare_heights,
    contact_codim_at_origin,
    groebner_basis,
    height_of_ideal,
    ideal_dimension,
    jet_equations,
    lct_estimate_at_origin,
    mld_estimate,
    monomial_contact_codim,
)
from .polyring import (
    GF,
    QQ,
    Domain,
    Ideal,
    MultiIdeal,
    Polynomial,
    coordinate_ideal,
    parse_polynomial,
)
from .tower import (
    CenterSpec,
    Step,
    Tower,
    blow_up,
    new_tower,
    point_on_divisor_avoiding,
    suspend,
    valuation,
    valuation_of_poly,
    weak_transform,
)

__version__ = "0.1.0"
