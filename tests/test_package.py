import fiberlab

PUBLIC_NAMES = [
    "ACTION_KINDS", "Alphabet", "ArDecompositionReport", "BinaryCodebook", "BlockCodebookFamily",
    "DrivingTrajectory", "EncodedStream", "EstimatorReport", "ExperimentConfig", "FiberSystemSpec",
    "InfiniteInformationError", "KraftInfeasibleError", "MalformedStreamError", "MarkovChainSpec",
    "ModelMismatchError", "OrbitName", "ResourceLimitError", "SYSTEM_PRESETS", "VisitRecord", "Word",
    "ar_decomposition_check", "block_code_rate", "bufetov_condition", "canonical_kraft_code", "conditional_rate",
    "cylinder_prob", "decode", "driving_preset", "emit_name", "empirical_two_pass_rate", "encode", "entropy_rate",
    "enumerate_word", "exact_averaged_entropy", "information_function", "is_irreducible", "is_prefix_free",
    "is_stationary", "kraft_sum", "load_config", "load_config_file", "pair_counts", "range_ratio_curve",
    "sample_trajectory", "shannon_length", "system_preset", "visit_record", "walk",
]


def test_public_names_are_pinned_and_exclude_submodules():
    # an added or removed export shows up here as a diff; submodules are not exports
    assert sorted(fiberlab.__all__) == PUBLIC_NAMES
    namespace = {}
    exec("from fiberlab import *", namespace)
    assert sorted(name for name in namespace if name != "__builtins__") == PUBLIC_NAMES
