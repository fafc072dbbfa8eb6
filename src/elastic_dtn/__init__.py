"""Symbol calculus for the elastic displacement-to-traction map.

Forward direction: boundary-normal-coordinate metric and Lame coefficient
jets in, the graded symbol levels of the boundary operator out.  Inverse
direction: observed symbol levels in, the boundary metric and its normal
derivatives out, recovered order by order with a layer-peeling scheme.
"""

from .geometry import (
    LameJet,
    MetricJet,
    apply_decomposition,
    assemble_full_metric,
    christoffel,
    lame_apply,
    ricci,
)
from .jets import (
    AccuracyExhausted,
    ContextMismatch,
    Jet,
    JetContext,
    JetError,
    JetMatrix,
    NotInvertible,
    mat_inverse,
    reciprocal,
    sqrt,
)
from .recovery import (
    ConsistencyError,
    ObservedSymbols,
    RecoveredBoundaryData,
    extract_quadratic,
    lin_inverse,
    recover_full,
    recover_normal_derivative,
    recover_order0,
)
from .scenes import SceneConfig, SceneError, load_scene, random_scene
from .symbols import (
    SymbolContext,
    SymbolLevels,
    build_context,
    build_E,
    dtn_symbols,
    plane_wave_consistency,
    q1,
    solve_q,
)

__all__ = [
    "AccuracyExhausted",
    "ConsistencyError",
    "ContextMismatch",
    "Jet",
    "JetContext",
    "JetError",
    "JetMatrix",
    "LameJet",
    "MetricJet",
    "NotInvertible",
    "ObservedSymbols",
    "RecoveredBoundaryData",
    "SceneConfig",
    "SceneError",
    "SymbolContext",
    "SymbolLevels",
    "apply_decomposition",
    "assemble_full_metric",
    "build_E",
    "build_context",
    "christoffel",
    "dtn_symbols",
    "extract_quadratic",
    "lame_apply",
    "lin_inverse",
    "load_scene",
    "mat_inverse",
    "plane_wave_consistency",
    "q1",
    "random_scene",
    "reciprocal",
    "recover_full",
    "recover_normal_derivative",
    "recover_order0",
    "ricci",
    "solve_q",
    "sqrt",
]
