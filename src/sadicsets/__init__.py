"""Exact analysis of digit-restricted base-s Cantor sets.

The library splits into: the digit/block codec (`sadic`), exact
cylinder-interval algebra (`cylinders`), sets generated by finite word
alphabets (`combos`), dimension equations and box counting
(`dimension`), stage-wise covering measure (`measure`), digit-frequency
statistics (`normality`), and the end-to-end acceptance rows
(`acceptance`).  Everything numeric is an exact `fractions.Fraction`
unless a result is a dimension (a root of a transcendental equation).

Only `errors` and `__version__` load with the package.  Each other
layer is imported the first time one of its names, or the layer itself,
is looked up here (PEP 562); the name is then bound in this namespace,
so a later lookup is a plain attribute read.  numpy loads with
`dimension`, the one layer that uses it.  It stays a top-level import
there, though only the box-counting slope fit calls it: the benchmark
in `perfbench/` reads numpy's version from `sys.modules` after each
run, and a run that fits no slope would then find no numpy.
"""

import importlib

from . import errors

__version__ = "0.1.0"

# Each layer and the public names the package takes from it: the one
# statement of the package API.
_EXPORTS = {
    "errors": (
        "ExtremaFalsificationError", "InsufficientDigitsError", "InvalidBaseError",
        "InvalidBlockError", "InvalidDigitError", "NotAMemberError", "RangeError",
        "ResourceBudgetError", "SadicError", "ScaleMismatchError", "WordError",
    ),
    "sadic": (
        "BlockSequence", "DigitString", "Rational", "block_alphabet", "block_decode",
        "block_encode", "digits_to_rational", "element_value", "rational_json",
        "rational_to_digits",
    ),
    "cylinders": (
        "Cylinder", "GapInterval", "LocateResult", "cylinder", "cylinder_diameter",
        "cylinder_order", "extension_value_bounds", "gap_interval", "point_locate",
        "set_extrema",
    ),
    "combos": (
        "FRONTIER_BUDGET", "ComboAlphabet", "ComboCylinder", "ComboExtrema",
        "combo_cylinder", "comboset_extrema", "enumerate_prefixes", "induced_alphabet",
        "parse_word", "sprime3_alphabet", "tilde_alphabet", "word_str",
    ),
    "dimension": (
        "SOLVE_BUDGET", "BoxCountResult", "DimensionResult", "MoranEquation",
        "box_count_for_alphabet", "dim_S", "dim_alphabet", "dim_tilde", "moran_solve",
    ),
    "measure": ("STAGE_BUDGET", "CoverStage", "cover_stage", "measure_decay_report", "sigma"),
    "normality": (
        "FrequencyProfile", "NormalVerdict", "ResidualReport", "digit_frequencies",
        "normal_candidate_exists", "normality_dimension_bounds",
        "structural_identity_residual", "structural_zero_frequency",
        "uniform_stream_zero_frequency",
    ),
    "acceptance": ("CRITERIA", "CriterionResult", "format_table", "run_all"),
}
_HOME = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    # Called only for a name not yet bound here.
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
