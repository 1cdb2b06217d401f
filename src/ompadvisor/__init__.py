"""Loop parallelization advisor: predicts OpenMP parallel-for pragmas and
private/reduction clauses for C for-loops from a masked-attention encoder
over code tokens and their data-flow graph."""

__version__ = "0.1.0"
