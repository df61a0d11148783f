"""Structure-preserving sparse refinement: tensors, operators, pipeline, metrics."""

from .tensor import SpsTensor, from_dense, reselect, subdivide, to_dense

__all__ = [
    "SpsTensor",
    "from_dense",
    "reselect",
    "subdivide",
    "to_dense",
]

__version__ = "0.1.0"
