"""Total-variation laboratory: exact count-statistic TV, Monte Carlo
sandwich bounds, mixing-time search, cutoff experiments, and the
batch-refresh chain's bounds and exact profile.

Like the package, this namespace loads each submodule on first use."""

from .. import _lazy

__all__, __getattr__, __dir__ = _lazy(globals(), {
    "ehrenfest": (
        "EhrenfestBounds", "LogLogSchedule", "coupling_upper", "ehrenfest_bounds",
        "ehrenfest_mixing_time", "ehrenfest_tv_profile", "loglog_schedule",
    ),
    "exact": (
        "ProductMultinomialLaw", "TVEstimate", "tv_exact_atomic",
        "tv_exact_product_multinomial",
    ),
    "mc": (
        "batched_products", "make_constant_pair", "make_test_pair", "tv_lower_mc",
        "tv_upper_mc",
    ),
    "mixing": (
        "CutoffReport", "MixingProfile", "cutoff_experiment", "designed_pairs", "mixing_time",
    ),
})
