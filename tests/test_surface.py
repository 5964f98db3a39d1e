"""The public surface: ``cycpres.__all__`` is pinned, so growing it is a test edit."""

import cycpres

SURFACE = (
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
)


def test_the_public_surface_is_pinned():
    assert tuple(cycpres.__all__) == SURFACE
    assert len(SURFACE) == len(set(SURFACE)) == 38


def test_every_public_name_resolves():
    namespace = {}
    exec("from cycpres import *", namespace)
    for name in SURFACE:
        assert namespace[name] is getattr(cycpres, name), name
        assert getattr(cycpres, name).__module__.startswith("cycpres."), name
