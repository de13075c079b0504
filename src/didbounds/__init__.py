"""Partial-identification bounds for treatment effects in DiD designs with
endogenous sample selection."""

from .bounds import (
    BoundsResult,
    MixingProportions,
    bounds_tau_nno,
    bounds_tau_noo,
    bounds_tau_ono,
    bounds_tau_ooo,
    group_proportion,
    mixing_mono,
    mixing_no_mono,
    naive_did,
    strata_proportions,
)
from .core import (
    FrechetInterval,
    ProbEstimate,
    cond_prob_s1,
    empirical_quantile,
    frechet_interval,
    trimmed_mean_lower,
    trimmed_mean_upper,
)
from .data import (
    MONO_NEGATIVE,
    MONO_POSITIVE,
    WITHOUT_MONOTONICITY,
    AssumptionSet,
    MultiPeriodPanel,
    PanelDataset,
    RcsDataset,
    load_multi_csv,
    load_panel_csv,
    load_rcs_csv,
    write_panel_csv,
)
from .extensions import (
    StaggeredTarget,
    bounds_staggered,
    bounds_tau_oo_rcs,
    naive_did_rcs,
    rcs_weights,
)
from .inference import (
    BootstrapResult,
    BootstrapSpec,
    ConfidenceInterval,
    bootstrap_ses,
    ci_imbens_manski,
    ci_union,
    solve_c_n,
)
from .simulation import (
    DgpConfig,
    OracleResult,
    generate_panel,
    monte_carlo_csv,
    oracle_true_values,
    run_monte_carlo,
)

__version__ = "0.1.0"
