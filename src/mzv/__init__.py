"""Exact toolkit for the harmonic-product relation space of multiple zeta values."""

from .indices import (
    PHI,
    Combination,
    MultiIndex,
    all_indices,
    as_combination,
    as_index,
    coarsen,
    coarsen_inv,
    concat,
    dual,
    format_combination,
    format_index,
    idx,
    merge_concat,
    ones,
    parse_combination,
    parse_index,
    partition,
    raise_last,
    refine,
    refine_inv,
    reverse,
    signed,
)
from .products import (
    circ,
    circ_bar,
    enumerate_stuffle,
    stuffle,
    stuffle_bar,
)
from .lyndon import (
    binary_lyndon_count,
    dimension_formula,
    enumerate_lyndon,
    is_lyndon,
    moebius,
    psi2,
    zagier_dim,
)
from .ohno import (
    ohno_apply,
    ohno_bar_apply,
    ohno_bar_u,
    ohno_u,
)
from .relations import (
    LinearRelation,
    QuadraticRelation,
    duality_relation,
    kawashima_basis,
    kawashima_relation,
    ohno_relations,
    quadratic_relation,
)
from .qlinalg import RelationMatrix
from .numeric import MzvEstimate, verify_linear, verify_quadratic, zeta_bar, zeta_plus, zeta_strict

__version__ = "0.1.0"
