"""Exact computations for linear configurations: matroids, configuration
polynomials and their bilinear incidence forms, conormal-type fans,
invariant classes, and positive-characteristic certificates.

Each public name is imported from its module (`from confan.fans import
Fan`); importing the package itself loads none of them.
"""

__version__ = "0.1.0"
