"""Exact computations for linear configurations: matroids, configuration
polynomials, incidence-variety data, conormal-type fans, invariant classes,
and positive-characteristic certificates."""

from .arith import Fp, Matrix, MultiPoly, TermOrder, det, kernel_basis, matrix_rank
from .charp import (
    Certificate,
    fedder_witness,
    lead_term_certificate,
    linkage_generators,
    row_reduce_to_standard,
    spair_reduction_check,
)
from .classes import (
    BettiTable,
    BiDegree,
    a_invariant,
    chow_bidegree,
    cohomology_basis,
    motivic_class,
    resolution_betti,
)
from .config import (
    Configuration,
    Point,
    XRankClass,
    config_from_graph,
    config_new,
    dual_config,
    duality_map,
    hadamard_square,
    iota_differential_check,
    jacobian_rank,
    lambda_system,
    nonround_flats,
    on_lambda,
    psi_basis_expansion,
    psi_det,
    q_w_matrix,
    sample_stratum_point,
    sample_torus_point,
    singular_witness,
    x_rank_class,
)
from .fans import (
    Fan,
    LatticeVector,
    bergman_fan,
    count_maximal_cones,
    delta_fan,
    delta_tilde_fan,
    divisor_incidence,
    fan_from_json,
    fan_to_json,
    fibre_fan,
    is_unimodular,
    maps_into_coordinate_fan,
    mu_apply,
    refines,
    square_biflats,
    square_conormal_fan,
)
from .matroid import (
    Matroid,
    char_poly,
    closure,
    contract,
    delete,
    dual,
    flats,
    is_connected,
    is_round,
    matroid_from_bases,
    matroid_from_graph,
    matroid_from_matrix,
    rank_of,
    reduced_char_poly,
    uniform_matroid,
)

__version__ = "0.1.0"
