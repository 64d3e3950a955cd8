"""Exact and hybrid Gibbs-type kernels on finite state spaces, their spectra,
and numerical certification of the comparison inequalities between them."""

__version__ = "0.1.0"

from .approximators import (
    ApproximatorSpec,
    Exact,
    ExplicitMatrix,
    Lazy,
    MetropolisIndep,
    MetropolisRW,
    make_approximator,
)
from .bounds import (
    Analysis,
    ApproxQuality,
    NormProfile,
    approx_quality,
    dominating_norm_profile,
    mean_power_bound,
    rms_power_bound,
)
from .config import CONFIG_SCHEMA, ModelConfig, canonicalize, parse_config
from .demos import demo_config, list_demos
from .errors import HybridGibbsError
from .gibbs import (
    block_random_scan,
    da_exact,
    da_exact as slice_exact,
    da_hybrid,
    da_hybrid as slice_hybrid,
    exact_random_scan,
    hybrid_random_scan,
    inner_block_kernel,
)
from .report import BoundReport
from .simulate import (
    Trajectory,
    VarianceEstimate,
    batch_means_variance,
    cross_validate_variance,
    mixing_curve,
    simulate,
    write_trajectory,
)
from .slicemodel import SliceModel
from .space import (
    JointDistribution,
    ProductSpace,
    SelectionProbs,
    conditional,
    conditional_joint,
    joint_from_weights,
    marginal,
    product_joint,
)
from .spectral import (
    FunctionVec,
    ProbVec,
    ReversiblePair,
    SpectralSummary,
    StochasticKernel,
    asymptotic_variance,
    check_reversibility,
    spectral_jensen_check,
    spectral_summary,
)
from .suite import RunReport, run_suite
