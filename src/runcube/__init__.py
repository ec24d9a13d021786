"""Exact statistics and generating functions of Fibonacci-run graphs.

Vertices of the graph R_n are binary strings obeying the run condition
(each maximal run of r ones is followed by at least r + 1 zeros, read
left to right) with two trailing zeros stripped; edges join strings at
Hamming distance one.  The package enumerates these graphs exactly,
streams degree censuses, expands the closed-form generating functions
of the associated statistics as truncated series, and cross-checks each
closed form against brute force.  Everything is integer arithmetic.
"""

__version__ = "0.1.0"

from .config import series_order, stream_cap, thread_count, vertex_cap
from .embedding import (
    DilationResult,
    EncodingResult,
    HostRecord,
    cube_gf,
    dilation,
    encode,
    smallest_host_probe,
)
from .enumerators import (
    assemble_case_gfs,
    case_census_polynomials,
    degree_gf,
    degree_k_series,
    degree_polynomial,
    down_gf,
    edge_gf,
    gf_degree_closed,
    gf_updown_closed,
    maximal_gf,
    up_gf,
    updown_gf,
    updown_polynomial,
)
from .errors import (
    ConfigError,
    DomainError,
    RegistryError,
    ResourceLimitError,
    RuncubeError,
    SeriesError,
    StructureError,
    ValidationError,
)
from .graph import (
    DegreeCensus,
    FibRunGraph,
    bfs_distances,
    bfs_levels,
    build,
    closed_form_edge_count,
    count_induced_cubes,
    degree_census,
    diameter,
    eccentricity,
    edge_count,
    maximal_vertices,
    vertex_labels,
)
from .inversions import q_polynomial, q_polynomial_recursive, q_series
from .polyseries import MultiPoly, RationalGF, Ring, TruncatedSeries
from .poset import (
    interval,
    leq,
    mobius,
    mobius_recursive,
    rank_gf,
    rank_polynomial,
    verify_boolean_intervals,
)
from .report import Report
from .strings import (
    count_by_weight,
    decompose,
    enumerate_rc,
    factorize,
    fibonacci,
    first_violation,
    flip_degrees,
    inversions as inversion_count,
    is_run_constrained,
    letter,
    weight_count,
)
