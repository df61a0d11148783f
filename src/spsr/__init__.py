"""Structure-preserving sparse refinement: tensors, operators, pipeline, metrics."""

from .tensor import DenseTensor, SpsTensor, from_dense, gather_neighborhood, reselect, subdivide, to_dense

__all__ = [
    "DenseTensor",
    "SpsTensor",
    "from_dense",
    "gather_neighborhood",
    "reselect",
    "subdivide",
    "to_dense",
]

__version__ = "0.1.0"
