"""Exact and empirical verification of spectral simplicity for discrete
random symmetric matrices."""

from .dist import (
    AtomicDistribution,
    bernoulli_half,
    make_distribution,
    rademacher,
    zero_atom,
)
from .gaps import Gap, full_rank_reduce, is_proper, volume
from .harness import (
    CensusResult,
    ExperimentSummary,
    exhaustive_census,
    monte_carlo_simplicity,
    rich_eigenvector_frequency,
    verify_orthogonality_lemma,
    wilson_interval,
)
from .matrices import (
    EnsembleSpec,
    SymmetricMatrix,
    graph_from_index,
    sample_matrix,
    trial_rng,
)
from .smallball import (
    SmallBallResult,
    WeightVector,
    is_rich,
    small_ball_exact,
    small_ball_windowed,
)
from .spectrum import (
    CharPoly,
    NumericSpectrum,
    SimplicityVerdict,
    char_poly,
    eigen_decompose,
    repeated_by_twins,
    simplicity_exact,
    simplicity_numeric,
)
from .structure import (
    StructureParams,
    StructureReport,
    covering_gap_with_indices,
    refine_structure,
    verify_report,
)

__version__ = "0.1.0"
