"""Loop parallelization advisor: predicts OpenMP parallel-for pragmas and
private/reduction clauses for C for-loops from a masked-attention encoder
over code tokens and their data-flow graph."""

__version__ = "0.1.0"

from .augment import curriculum_ratio, rename_variables
from .corpus import (
    Sample, build_corpus, content_hash, deduplicate, extract_from_source,
    extract_samples, split_corpus,
)
from .dfg import DataFlowGraph, DfgNode, build_dfg
from .encode import EncodedInput, Vocabulary, build_attention_mask, build_vocabulary, encode_sample
from .metrics import Confusion, compute_metrics, evaluate
from .model import (
    ModelConfig, check_gradients, compute_loss, forward_pass,
    load_model, predict_source, save_model, train,
)
from .pragmas import OmpPragma, PragmaError, parse_omp_pragma, render_omp_pragma
from .synthetic import generate_synthetic_corpus
from .syntax import AstNode, ParseError, Token, parse_snippet, parse_source
