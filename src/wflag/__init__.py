"""Exact-arithmetic search for orbifolds polarized in weighted flag varieties."""
from __future__ import annotations

from .formats import (
    FORMATS,
    CocharacterParam,
    EmbeddingData,
    FormatSpec,
    ambient_weights,
    enumerate_parameters,
    hilbert_series,
)
from .orbifold import (
    OrbifoldContribution,
    QuotientSingularity,
    basket_kernel,
    gcd_closure,
    initial_term,
    porb_cont,
    qorb,
)
from .ratfun import (
    DomainError,
    RationalFunction,
    UniPolynomial,
    poly_gcd,
    series_of,
)
from .search import (
    G2_FANO_TABLE,
    Candidate,
    SearchConfig,
    SweepResult,
    iter_search,
    merge_candidates,
    pos_wt,
    search_embedding,
    sweep_parameters,
)

__all__ = [
    "FORMATS",
    "CocharacterParam",
    "EmbeddingData",
    "FormatSpec",
    "ambient_weights",
    "enumerate_parameters",
    "hilbert_series",
    "OrbifoldContribution",
    "QuotientSingularity",
    "basket_kernel",
    "gcd_closure",
    "initial_term",
    "porb_cont",
    "qorb",
    "DomainError",
    "RationalFunction",
    "UniPolynomial",
    "poly_gcd",
    "series_of",
    "G2_FANO_TABLE",
    "Candidate",
    "SearchConfig",
    "SweepResult",
    "iter_search",
    "merge_candidates",
    "pos_wt",
    "search_embedding",
    "sweep_parameters",
]

__version__ = "0.1.0"
