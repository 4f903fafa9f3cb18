"""Desk-scale computations on trivalent graph curves.

Build a nodal curve from a trivalent graph (one projective line per
vertex, glued at three marked points), then compute: global sections of
the dualizing sheaf and its square, flat SL(2,C) framings and surface
bundles, Higgs fields, the determinant (Hitchin) map in per-edge
bi-residue coordinates, and spectral double covers with their Prym
dimension count and eigen-data reconstruction.

``import graphcurves`` loads no submodule: ``graphcurves.X`` loads the
submodule defining X on first use, so a process loads (and, with bytecode
caching off, compiles) only what it reads.
"""
from importlib import import_module

_EXPORTS = {  # submodule: the public names it defines
    "errors": """DegenerateNode Disconnected GenerationFailed GraphCurveError
        InconsistentSpectralData IrregularDeterminant MalformedPairing MatchingViolated
        NotOnVariety NotTrivalent NumericalError ScalarDomainMismatch UnknownName
        ValidationError""",
    "framings": """Framing GaugeTransform SurfaceFlatBundle apply_gauge
        apply_gauge_bundle flat_linearization flat_local_dimension schottky_holonomies
        subspace_flags trace_invariants tree_gauge vertex_relation_residual
        zero_section""",
    "graphs": """CATALOG_NAMES SpanningTreeData TrivalentGraph canonical_hash
        catalog_graph graph_from_json graph_to_json random_trivalent spanning_tree""",
    "higgs": """HiggsField assemble_higgs_constraints gauge_transform_higgs
        higgs_from_edge_residues higgs_residual higgs_space random_higgs_field
        residue_parameterization""",
    "hitchin": """bires_det_residual hitchin_edge_coords hitchin_image hitchin_jacobian
        is_regular jacobian_fd_error polarization""",
    "matrices": "Mat2",
    "scalars": "EXACT FLOAT",
    "sections": """GlobalDifferential GlobalQuadratic bires_coordinates canonical_space
        double_canonical_space multiply_differentials""",
    "spectral": """BranchData NodeLift PrymReport SpectralCurve SpectralLineBundle
        all_node_eigendata anti_invariant_cycles branch_points build_spectral_curve
        node_eigendata prym_report random_regular_higgs reconstruct_higgs
        roundtrip_error spectral_line_bundle twist""",
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_OWNER)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_OWNER[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
