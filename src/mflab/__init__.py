"""mflab: a numerical laboratory for multiplicative sign sequences.

Sieves for the Mobius, Liouville and square-free indicators; lag
correlations and almost periodic approximation; measures on the circle
with Hellinger affinity; periodograms with analytic coefficient checks;
block combinatorics for square-free patterns; and a battery of decay
experiments with deterministic JSON reports.
"""

from .cache import cache_verify, read_cache, write_cache
from .config import RunConfig, load_config, parse_config, run
from .experiments import (
    ExperimentReport,
    Pattern,
    mobius_exponential_sum,
    pattern_correlation,
    rotation_orthogonality,
    run_experiment,
    load_caches,
    short_interval_average,
    sign_window,
    small_correlation_fraction,
    squarefree_modulated_sum,
    two_point_correlation,
    windowed_sum_energy,
)
from .measures import (
    TorusMeasure,
    affinity,
    fourier_coeff,
    hellinger,
    rajchman_profile,
    smoothed,
    wiener_continuity_stat,
)
from .sequences import (
    BoundedSeq,
    CorrelationTable,
    TrigPoly,
    besicovitch_distance,
    correlation_table,
    cross_correlation,
    modulate,
    trig_approx,
)
from .sieve import PrimeBasis, SignSeq, factor_oracle, primes_upto, sieve
from .spectral import (
    Periodogram,
    coefficient_consistency,
    dirichlet_energy,
    periodogram,
    spectral_limit_diagnostic,
)
from .symbolic import (
    Block2,
    Block3,
    SkewPoint,
    apply_signs,
    block_entropy_estimate,
    empirical_block_measure,
    extract_signs,
    is_admissible,
    mirsky_cylinder_density,
    residue_count,
    shift_invariance_defect,
    skew_step,
    square_map,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
