"""Toolkit for cyclically presented groups and their shift dynamics.

The pieces: free-group words over indexed generators (``words``), cyclic
presentations and orientability (``cyclic``), relative presentations with
retraction-kernel rewriting (``relative``), the finiteness/asphericity
classification of the three-generator family G_n(k,l) (``taxonomy``),
Todd-Coxeter coset enumeration (``enumerate``), and orbit analysis of
the shift through coset tables (``dynamics``).
"""

from .words import (
    Word,
    concat,
    free_reduce,
    invert,
    parse_word,
    shift,
)
from .cyclic import (
    CyclicPresentation,
    OrientabilityVerdict,
    gcd_decompose,
    gnkl,
    orientability,
)
from .relative import (
    RelativeWord,
    Retraction,
    change_variable,
    lift,
    relative_orientable,
    rho,
    root,
    to_relative,
    valid_retractions,
)
from .taxonomy import Classification, Conditions, classify, conditions, reduce_to_0p, sweep
from .enumerate import (
    CosetTable,
    FinitePresentation,
    audit_table,
    generator_permutation,
    parse_presentation,
    todd_coxeter,
)
from .dynamics import (
    EnumerationIncomplete,
    N18Evidence,
    OrbitReport,
    orbit_report,
    shift_orbits,
    verify_n18_evidence,
)

__version__ = "0.1.0"

__all__ = [
    "Word", "concat", "free_reduce", "invert", "parse_word", "shift",
    "CyclicPresentation", "OrientabilityVerdict", "gcd_decompose", "gnkl",
    "orientability",
    "RelativeWord", "Retraction", "change_variable", "lift",
    "relative_orientable", "rho", "root", "to_relative", "valid_retractions",
    "Classification", "Conditions", "classify", "conditions", "reduce_to_0p",
    "sweep",
    "CosetTable", "FinitePresentation", "audit_table", "generator_permutation",
    "parse_presentation", "todd_coxeter",
    "EnumerationIncomplete", "N18Evidence", "OrbitReport", "orbit_report",
    "shift_orbits", "verify_n18_evidence",
]
