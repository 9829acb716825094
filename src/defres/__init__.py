"""Exact deflation of restricted symmetric group characters.

The public surface re-exports the shape types, the strip and abacus
combinatorics, exact character arithmetic, the wreath-product averaging
oracle, and the deflation evaluators built on top of them.
"""

from .abacus import (
    AbacusDisplay,
    QuotientData,
    display,
    is_n_decomposable,
    n_quotient,
    quotient_bijection,
)
from .borderstrips import (
    BorderStripTableau,
    StripMeta,
    a_coefficient,
    enumerate_m_bst,
    mn_value,
)
from .characters import (
    ClassFunction,
    induced_value,
    inner_product,
    irreducible_character,
    lr_coefficient,
    skew_character,
)
from .deflation import (
    DeflationQuery,
    defres_degree,
    defres_recursive,
    defres_sign,
    defres_theorem,
    farahat_check,
    ncycle_vanishing,
)
from .partitions import (
    Composition,
    Partition,
    SkewPartition,
    centralizer_order,
    intermediates,
    partitions_of,
    repeat_parts,
    skew_shapes,
    stretch,
)
from .wreath import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    WreathElement,
    omega,
    oracle_defres,
    tilde_theta_value,
    to_permutation,
)

__all__ = [
    "AbacusDisplay",
    "BorderStripTableau",
    "BudgetExceeded",
    "ClassFunction",
    "Composition",
    "DEFAULT_BUDGET",
    "DeflationQuery",
    "Partition",
    "QuotientData",
    "SkewPartition",
    "StripMeta",
    "WreathElement",
    "a_coefficient",
    "centralizer_order",
    "defres_degree",
    "defres_recursive",
    "defres_sign",
    "defres_theorem",
    "display",
    "enumerate_m_bst",
    "farahat_check",
    "induced_value",
    "inner_product",
    "intermediates",
    "irreducible_character",
    "is_n_decomposable",
    "lr_coefficient",
    "mn_value",
    "n_quotient",
    "ncycle_vanishing",
    "omega",
    "oracle_defres",
    "partitions_of",
    "quotient_bijection",
    "repeat_parts",
    "skew_character",
    "skew_shapes",
    "stretch",
    "tilde_theta_value",
    "to_permutation",
]

__version__ = "0.1.0"
