"""Exact arithmetic for skew Schur principal specializations and their
divisor-basis decompositions, abacus cores and quotients, border-strip
tableaux and characters, and root-of-unity evaluations."""

from .shapes import (
    Composition,
    Partition,
    SkewShape,
    is_border_strip,
    partition_from_beta,
)
from .qpoly import (
    CspDecomposition,
    QPoly,
    Verdict,
    csp_decompose,
    divisors,
    eval_at_primitive_root,
    gaussian_binomial,
    mobius,
    reduce_mod,
)
from .abacus import (
    AbacusDisplay,
    SkewQuotient,
    core,
    display,
    quotient,
    remove_strip_moves,
    runner_classes,
    skew_quotient,
)
from .schur import (
    count_ssyt,
    jt_matrix,
    principal_specialization,
    ssyt_generating_function,
)
from .characters import (
    BorderStripTableau,
    SkewCharValue,
    enumerate_bst,
    eval_at_root,
    kostka_foulkes_rect_at_root,
    one_line_string,
    perm,
    permutation_sign,
    skew_char,
    skew_char_rect,
)
from .analysis import (
    CspReport,
    analyze,
    analyze_shifted,
)

__version__ = "0.1.0"

__all__ = [
    "AbacusDisplay",
    "BorderStripTableau",
    "Composition",
    "CspDecomposition",
    "CspReport",
    "Partition",
    "QPoly",
    "SkewCharValue",
    "SkewQuotient",
    "SkewShape",
    "Verdict",
    "analyze",
    "analyze_shifted",
    "core",
    "count_ssyt",
    "csp_decompose",
    "display",
    "divisors",
    "enumerate_bst",
    "eval_at_primitive_root",
    "eval_at_root",
    "gaussian_binomial",
    "is_border_strip",
    "jt_matrix",
    "kostka_foulkes_rect_at_root",
    "mobius",
    "one_line_string",
    "partition_from_beta",
    "perm",
    "permutation_sign",
    "principal_specialization",
    "quotient",
    "reduce_mod",
    "remove_strip_moves",
    "runner_classes",
    "skew_char",
    "skew_char_rect",
    "skew_quotient",
    "ssyt_generating_function",
]
