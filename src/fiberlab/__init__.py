"""fiberlab: exact fiber entropies and code-length complexity estimates
for randomly driven symbolic systems."""

from types import ModuleType as _ModuleType

from .actions import (
    ACTION_KINDS,
    VisitRecord,
    range_ratio_curve,
    visit_record,
    walk,
)
from .coding import (
    ArDecompositionReport,
    BlockCodebookFamily,
    EncodedStream,
    EstimatorReport,
    ar_decomposition_check,
    conditional_rate,
    decode,
    empirical_two_pass_rate,
    encode,
)
from .config import ExperimentConfig, SYSTEM_PRESETS, load_config, load_config_file, system_preset
from .driving import (
    DrivingTrajectory,
    MarkovChainSpec,
    block_code_rate,
    bufetov_condition,
    cylinder_prob,
    driving_preset,
    entropy_rate,
    is_irreducible,
    is_stationary,
    sample_trajectory,
)
from .errors import (
    InfiniteInformationError,
    KraftInfeasibleError,
    MalformedStreamError,
    ModelMismatchError,
    ResourceLimitError,
)
from .fiber import (
    FiberSystemSpec,
    OrbitName,
    emit_name,
    exact_averaged_entropy,
    information_function,
)
from .kraft import BinaryCodebook, canonical_kraft_code, kraft_sum, shannon_length
from .words import Alphabet, Word, enumerate_word, is_prefix_free

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
