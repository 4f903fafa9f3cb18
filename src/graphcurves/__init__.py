"""Desk-scale computations on trivalent graph curves.

Build a nodal curve from a trivalent graph (one projective line per
vertex, glued at three marked points), then compute: global sections of
the dualizing sheaf and its square, flat SL(2,C) framings and surface
bundles, Higgs fields, the determinant (Hitchin) map in per-edge
bi-residue coordinates, and spectral double covers with their Prym
dimension count and eigen-data reconstruction.
"""

from .errors import (DegenerateNode, Disconnected, GenerationFailed,
                     GraphCurveError, InconsistentSpectralData,
                     IrregularDeterminant, MalformedPairing, MatchingViolated,
                     NotOnVariety, NotTrivalent, NumericalError,
                     ScalarDomainMismatch, UnknownName, ValidationError)
from .framings import (Framing, GaugeTransform, SurfaceFlatBundle, apply_gauge,
                       apply_gauge_bundle, flat_linearization,
                       flat_local_dimension, schottky_holonomies, subspace_flags,
                       trace_invariants, tree_gauge, vertex_relation_residual,
                       zero_section)
from .graphs import (CATALOG_NAMES, SpanningTreeData, TrivalentGraph,
                     canonical_hash, catalog_graph, graph_from_json,
                     graph_to_json, random_trivalent, spanning_tree)
from .higgs import (HiggsField, assemble_higgs_constraints, gauge_transform_higgs,
                    higgs_from_edge_residues, higgs_residual, higgs_space,
                    random_higgs_field, residue_parameterization)
from .hitchin import (bires_det_residual, hitchin_edge_coords, hitchin_image,
                      hitchin_jacobian, is_regular, jacobian_fd_error,
                      polarization)
from .matrices import Mat2
from .scalars import EXACT, FLOAT
from .sections import (GlobalDifferential, GlobalQuadratic, bires_coordinates,
                       canonical_space, double_canonical_space,
                       multiply_differentials)
from .spectral import (BranchData, NodeLift, PrymReport, SpectralCurve,
                       SpectralLineBundle, all_node_eigendata,
                       anti_invariant_cycles, branch_points,
                       build_spectral_curve, node_eigendata, prym_report,
                       random_regular_higgs, reconstruct_higgs, roundtrip_error,
                       spectral_line_bundle, twist)

__version__ = "0.1.0"
