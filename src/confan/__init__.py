"""Exact computations for linear configurations: matroids, configuration
polynomials, incidence-variety data, conormal-type fans, invariant classes,
and positive-characteristic certificates.

The public names below are loaded on first use (PEP 562), so that importing
the package, or running one CLI command, compiles only the layers it needs.
"""

from importlib import import_module

# home module -> the public names it exports through the package
_EXPORTS = {
    "arith": ("Fp", "Matrix", "MultiPoly", "det", "kernel_basis", "matrix_rank"),
    "charp": (
        "fedder_witness",
        "lead_term_certificate",
        "linkage_generators",
        "row_reduce_to_standard",
        "spair_reduction_check",
    ),
    "classes": (
        "BettiTable",
        "BiDegree",
        "a_invariant",
        "chow_bidegree",
        "cohomology_basis",
        "motivic_class",
        "resolution_betti",
    ),
    "config": (
        "Configuration",
        "config_from_graph",
        "config_new",
        "lambda_system",
        "psi_basis_expansion",
        "psi_det",
        "q_w_matrix",
    ),
    "fans": (
        "Fan",
        "LatticeVector",
        "bergman_fan",
        "cones_off_coordinate_fans",
        "delta_fan",
        "delta_tilde_fan",
        "divisor_incidence",
        "fan_from_json",
        "fan_to_json",
        "fibre_fan",
        "non_unimodular_cones",
        "refines",
        "square_biflats",
        "square_conormal_fan",
    ),
    "incidence": (
        "Point",
        "XRankClass",
        "dual_config",
        "duality_map",
        "hadamard_square",
        "iota_differential_check",
        "jacobian_rank",
        "nonround_flats",
        "on_lambda",
        "sample_stratum_point",
        "sample_torus_point",
        "singular_witness",
        "x_rank_class",
    ),
    "matroid": (
        "Matroid",
        "char_poly",
        "closure",
        "contract",
        "delete",
        "dual",
        "flats",
        "is_connected",
        "is_round",
        "matroid_from_bases",
        "matroid_from_graph",
        "matroid_from_matrix",
        "rank_of",
        "reduced_char_poly",
        "uniform_matroid",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    if name in _HOME:
        value = getattr(import_module("." + _HOME[name], __name__), name)
    elif name in _EXPORTS:
        # `confan.fans` and the like, which the eager namespace also bound
        value = import_module("." + name, __name__)
    else:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
