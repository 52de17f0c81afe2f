"""Tools for density-matrix channels, purification and diagrams of states.

Each public name lives in one layer module, listed once in `_EXPORTS`.
`import qsdiag` loads none of them: a layer is imported the first time one
of its names is read (PEP 562), so `from qsdiag import DensityMatrix`
loads `qsdiag.core` alone.  Nothing is cached here, so `qsdiag.X` is always
the home module's current attribute.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "bloch": (
        "BlochAffineMap", "MapDecomposition", "affine_map_of_channel", "bloch_from_dm",
        "decompose_map", "dm_from_bloch", "ellipsoid_samples", "points_to_csv",
    ),
    "channels": (
        "CHANNEL_KINDS", "ChannelSpec", "channel_from_spec", "make_amp_damp",
        "make_deformation", "make_depolarizing_general", "make_depolarizing_standard",
        "make_rotation", "parse_channel_spec",
    ),
    "composite": ("partial_trace", "tensor"),
    "core": (
        "DensityMatrix", "DensityReport", "FormatError", "PureState", "basis_state",
        "dm_from_pure", "matrix_from_json", "matrix_to_json", "parse_number",
        "spectral_decompose", "validate_density",
    ),
    "diagram": (
        "Circuit", "CircuitParseError", "Gate", "StateDiagram", "build_diagram",
        "build_gate", "parse_circuit", "render_svg", "render_svg_chunks", "render_text",
        "render_text_chunks", "simulate",
    ),
    "kraus": (
        "KrausChannel", "apply_channel", "channel_from_json_dict", "channel_with_ancilla",
        "dilate_single_ancilla", "kraus_from_unitary", "validate_channel",
    ),
    "purify": (
        "PurificationResult", "purify_single_qubit", "synthesize_purification_circuit",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
