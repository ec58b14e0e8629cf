"""Compositional H2 performance and adaptive edge re-weighting for
matrix-weighted series-parallel consensus networks."""

from .errors import GraphValidationError, InfeasibleBoundsError, NotSeriesParallelError
from .graph import MatrixGraph, Edge, make_graph, dirichlet_laplacian
from .h2 import H2Report, compositional_h2, dense_h2
from .optimize import OptConfig, OptTrajectory, optimize_weights
from .sptree import Leaf, Parallel, Series, recognize, realize

__all__ = [
    "Edge",
    "GraphValidationError",
    "H2Report",
    "InfeasibleBoundsError",
    "Leaf",
    "MatrixGraph",
    "NotSeriesParallelError",
    "OptConfig",
    "OptTrajectory",
    "Parallel",
    "Series",
    "compositional_h2",
    "dense_h2",
    "dirichlet_laplacian",
    "make_graph",
    "optimize_weights",
    "realize",
    "recognize",
]

__version__ = "0.1.0"
