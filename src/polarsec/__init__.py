"""Secret-key encryption over polar codes on the binary erasure channel.

The package splits into code construction and decoding (:mod:`.polar`),
key material in its compact block-circulant form (:mod:`.keys`), the
block cipher itself (:mod:`.cipher`), design/security accounting
(:mod:`.analysis`), and a toy-scale chosen-plaintext attack harness
(:mod:`.attacks`).  ``polarsec --help`` exposes the same surface on the
command line.

:mod:`.analysis` and :mod:`.attacks` load on first use of one of their
names, so a caller that only uses keys and the cipher never compiles them.
"""
import importlib

from .cipher import (
    CipherContext,
    CiphertextBlock,
    CiphertextError,
    frame_plaintext,
    pack_ciphertext,
    unframe_plaintext,
    unpack_ciphertext,
)
from .gf2 import GF2Matrix, SingularMatrixError
from .keys import (
    KeyFormatError,
    KeyGenerationError,
    KeyParams,
    SecretKey,
    deserialize_key,
    generate_key,
    reference_params,
    serialize_key,
    validate_key,
)
from .lfsr import Lfsr, is_primitive, lfsr_period, taps_for_degree
from .polar import (
    ERASED,
    FrozenPlan,
    ReliabilityTable,
    bec_transmit,
    bhattacharyya,
    exhaustive_ambiguity,
    kernel_power,
    polar_transform,
    sc_decode_batch,
    top_indices,
)
from .rng import derive_rng, parse_seed

__version__ = "0.1.0"

_LAZY = {
    **dict.fromkeys(
        (
            "ComplexityReport", "ErrorBoundReport", "KeySizeReport", "SCALING_EXPONENT_BEC",
            "SecurityReport", "SimulationReport", "TablesReport", "WeightStats",
            "complexity_report", "default_pool", "error_bounds", "index_pool_size",
            "key_size_report", "perturbation_weight_stats", "rate_threshold",
            "reproduce_tables", "security_report", "simulate_round_trip",
        ),
        "analysis",
    ),
    **dict.fromkeys(
        (
            "AttackInfeasibleError", "AttackResult", "CostPoint", "EncryptionOracle",
            "ErrorSpace", "PartialErrorSpaceWarning", "ToyInstance", "attack_cost_curve",
            "attack_decrypt", "build_toy_instance", "collect_error_space", "linear_kpa",
            "rn_attack",
        ),
        "attacks",
    ),
}


def __getattr__(name: str):
    """Import :mod:`.analysis` or :mod:`.attacks` on first use (PEP 562)."""
    if name in ("analysis", "attacks"):
        return importlib.import_module(f".{name}", __name__)
    if name in _LAZY:
        value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "AttackInfeasibleError",
    "AttackResult",
    "CipherContext",
    "CiphertextBlock",
    "CiphertextError",
    "ComplexityReport",
    "CostPoint",
    "ERASED",
    "EncryptionOracle",
    "ErrorBoundReport",
    "ErrorSpace",
    "FrozenPlan",
    "GF2Matrix",
    "KeyFormatError",
    "KeyGenerationError",
    "KeyParams",
    "KeySizeReport",
    "Lfsr",
    "PartialErrorSpaceWarning",
    "ReliabilityTable",
    "SCALING_EXPONENT_BEC",
    "SecretKey",
    "SecurityReport",
    "SimulationReport",
    "SingularMatrixError",
    "TablesReport",
    "ToyInstance",
    "WeightStats",
    "attack_cost_curve",
    "attack_decrypt",
    "bec_transmit",
    "bhattacharyya",
    "build_toy_instance",
    "collect_error_space",
    "complexity_report",
    "default_pool",
    "derive_rng",
    "deserialize_key",
    "error_bounds",
    "exhaustive_ambiguity",
    "generate_key",
    "index_pool_size",
    "is_primitive",
    "kernel_power",
    "key_size_report",
    "lfsr_period",
    "linear_kpa",
    "pack_ciphertext",
    "parse_seed",
    "perturbation_weight_stats",
    "polar_transform",
    "rate_threshold",
    "reference_params",
    "reproduce_tables",
    "rn_attack",
    "sc_decode_batch",
    "security_report",
    "serialize_key",
    "simulate_round_trip",
    "taps_for_degree",
    "top_indices",
    "unframe_plaintext",
    "unpack_ciphertext",
    "validate_key",
    "frame_plaintext",
]
