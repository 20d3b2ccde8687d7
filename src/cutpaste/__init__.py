"""Simulation and analysis lab for cut-and-paste Markov chains on k-colorings.

Importing the package loads none of its submodules: each public name is
loaded from the submodule that defines it on first use (PEP 562), so a
caller pays only for the modules it reads.
"""

import importlib

__version__ = "0.1.0"


def _lazy(namespace: dict, exports: dict):
    """__all__, __getattr__ and __dir__ for the package whose globals are
    namespace. exports maps each submodule to the public names it defines;
    a name is imported from its submodule on first access and then kept in
    namespace, and a submodule named in exports resolves as an attribute."""
    package = namespace["__name__"]
    owner = {name: sub for sub, names in exports.items() for name in names}

    def __getattr__(name):
        if name in exports:
            return importlib.import_module(f"{package}.{name}")
        if name not in owner:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{owner[name]}"), name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted({*namespace, *exports, *owner})

    return list(owner), __getattr__, __dir__


__all__, __getattr__, __dir__ = _lazy(globals(), {
    "chains": (
        "ChainRun", "EhrenfestParams", "run_efcp_coordinate", "run_efcp_matrix",
        "run_ehrenfest", "standard_ehrenfest",
    ),
    "errors": (
        "BudgetRefusal", "InconclusiveRefusal", "Refusal", "TheoryRefusal", "ValidationError",
    ),
    "paintbox": (
        "Atomic", "DirichletColumns", "PaintboxLaw", "PermutationMix", "PointMass",
        "SelfSimilar", "StochasticMatrix", "law_from_config",
    ),
    "partitions": (
        "MAX_COLORS", "Coloring", "PartitionMatrix", "UnlabeledPartition", "act",
        "colorings_to_matrix", "identity_matrix", "matmul", "matrix_to_colorings", "project",
    ),
    "products": (
        "CollapseReport", "LyapunovEstimate", "collapse_diagnostic", "estimate_lyapunov",
    ),
    "projections": (
        "EquivalenceReport", "projected_mixing_equivalence",
    ),
    "rng": ("RngStream", "as_stream"),
    "tvlab": (
        "CutoffReport", "MixingProfile", "ProductMultinomialLaw", "TVEstimate",
        "cutoff_experiment", "ehrenfest_bounds", "ehrenfest_mixing_time",
        "ehrenfest_tv_profile", "loglog_schedule",
        "make_constant_pair", "make_test_pair", "mixing_time", "tv_exact_atomic",
        "tv_exact_product_multinomial", "tv_lower_mc", "tv_upper_mc",
    ),
})
__all__.append("__version__")
