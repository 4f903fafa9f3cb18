"""The package namespace is lazy and keeps its public names.

``graphcurves.X`` imports the submodule that defines X on first use, and
a bare ``import graphcurves`` loads no submodule.  The names below are
the package's public names, frozen: each must still resolve to the very
object its submodule defines.
"""
import importlib
import subprocess
import sys

import pytest

import graphcurves

from helpers import cli_env

EXPORTS = {
    "errors": ("DegenerateNode", "Disconnected", "GenerationFailed",
               "GraphCurveError", "InconsistentSpectralData",
               "IrregularDeterminant", "MalformedPairing", "MatchingViolated",
               "NotOnVariety", "NotTrivalent", "NumericalError",
               "ScalarDomainMismatch", "UnknownName", "ValidationError"),
    "framings": ("Framing", "GaugeTransform", "SurfaceFlatBundle", "apply_gauge",
                 "apply_gauge_bundle", "flat_linearization",
                 "flat_local_dimension", "schottky_holonomies", "subspace_flags",
                 "trace_invariants", "tree_gauge", "vertex_relation_residual",
                 "zero_section"),
    "graphs": ("CATALOG_NAMES", "SpanningTreeData", "TrivalentGraph",
               "canonical_hash", "catalog_graph", "graph_from_json",
               "graph_to_json", "random_trivalent", "spanning_tree"),
    "higgs": ("HiggsField", "assemble_higgs_constraints", "gauge_transform_higgs",
              "higgs_from_edge_residues", "higgs_residual", "higgs_space",
              "random_higgs_field", "residue_parameterization"),
    "hitchin": ("bires_det_residual", "hitchin_edge_coords", "hitchin_image",
                "hitchin_jacobian", "is_regular", "jacobian_fd_error",
                "polarization"),
    "matrices": ("Mat2",),
    "scalars": ("EXACT", "FLOAT"),
    "sections": ("GlobalDifferential", "GlobalQuadratic", "bires_coordinates",
                 "canonical_space", "double_canonical_space",
                 "multiply_differentials"),
    "spectral": ("BranchData", "NodeLift", "PrymReport", "SpectralCurve",
                 "SpectralLineBundle", "all_node_eigendata",
                 "anti_invariant_cycles", "branch_points",
                 "build_spectral_curve", "node_eigendata", "prym_report",
                 "random_regular_higgs", "reconstruct_higgs", "roundtrip_error",
                 "spectral_line_bundle", "twist"),
}
NAMES = [name for names in EXPORTS.values() for name in names]


def test_all_is_the_frozen_public_names():
    assert len(NAMES) == len(set(NAMES)) == 76
    assert sorted(graphcurves.__all__) == sorted(NAMES)
    assert set(NAMES) <= set(dir(graphcurves))


@pytest.mark.parametrize("module", EXPORTS)
def test_each_name_is_its_submodules_object(module):
    owner = importlib.import_module(f"graphcurves.{module}")
    for name in EXPORTS[module]:
        assert getattr(graphcurves, name) is getattr(owner, name), name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from graphcurves import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(NAMES)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        graphcurves.no_such_name


def test_bare_import_loads_no_submodule():
    script = ("import sys, graphcurves\n"
              "print(sorted(m for m in sys.modules if m.startswith('graphcurves')))")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=cli_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['graphcurves']"
