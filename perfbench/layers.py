"""The per-layer metrics of the traced run, by name and unit.

Every traced function gets ``<module>.<function>.self_s``; the ones an
optimisation is most likely to move get inclusive time (``total_s``,
outermost spans only) or a call count too.  All times and counts are
per round, a round being one pass of the workload's operation list.
``BENCHMARK.json`` lists exactly these names (``perfbench/test_smoke.py``
checks that).
"""
from __future__ import annotations

SELF_S = (
    "graphs.graph_from_json", "graphs.spanning_tree", "graphs.canonical_hash",
    "sections.multiply_differentials", "sections.canonical_matrix",
    "sections.canonical_space", "sections.double_canonical_matrix",
    "sections.double_canonical_space", "sections.bires_coordinates",
    "framings.zero_section", "framings.vertex_relation_residual",
    "framings.flat_linearization", "framings.flat_local_dimension",
    "framings.schottky_holonomies", "framings.subspace_flags",
    "higgs.assemble_higgs_constraints", "higgs.higgs_space",
    "higgs.higgs_residual", "higgs.random_higgs_field",
    "higgs.residue_parameterization_matrix", "higgs.higgs_from_edge_residues",
    "higgs.residue_parameterization",
    "hitchin.hitchin_image", "hitchin.hitchin_edge_coords",
    "hitchin.polarization", "hitchin.hitchin_jacobian",
    "hitchin.finite_difference_jacobian", "hitchin.jacobian_fd_error",
    "hitchin.is_regular",
    "spectral.branch_points", "spectral.line_mismatch",
    "spectral.node_eigendata", "spectral.all_node_eigendata",
    "spectral.build_spectral_curve", "spectral.prym_report",
    "spectral.anti_invariant_cycles", "spectral.twist",
    "spectral.reconstruct_higgs", "spectral.roundtrip_error",
    "spectral.random_regular_higgs",
    "linalg.exact_rref", "linalg.exact_rank", "linalg.exact_nullspace",
    "linalg.float_rank", "linalg.float_nullspace", "linalg.rank",
    "linalg.nullspace", "linalg.integer_rank", "linalg.solve_kernel",
    "cli.main", "cli.cmd_graph", "cli.cmd_sections", "cli.cmd_flat",
    "cli.cmd_higgs", "cli.cmd_hitchin", "cli.cmd_spectral",
)

TOTAL_S = (
    "linalg.exact_nullspace", "linalg.rank", "linalg.integer_rank",
    "linalg.float_nullspace", "linalg.float_rank", "higgs.higgs_space",
    "spectral.all_node_eigendata", "spectral.anti_invariant_cycles",
)

CALLS = (
    "graphs.graph_from_json", "graphs.spanning_tree",
    "sections.multiply_differentials", "sections.bires_coordinates",
    "framings.flat_linearization",
    "higgs.assemble_higgs_constraints", "higgs.higgs_space",
    "higgs.higgs_residual",
    "hitchin.polarization", "hitchin.hitchin_edge_coords", "hitchin.is_regular",
    "spectral.node_eigendata", "spectral.all_node_eigendata",
    "linalg.exact_rref", "linalg.exact_nullspace", "linalg.float_nullspace",
    "linalg.float_rank", "linalg.integer_rank", "linalg.solve_kernel",
)

# Calls of a function per operation of one kind: name -> (function, kind).
CALLS_PER_OP = {
    "higgs.higgs_space.calls_per_hitchin": ("higgs.higgs_space", "hitchin"),
    "higgs.higgs_space.calls_per_higgs": ("higgs.higgs_space", "higgs"),
    "spectral.all_node_eigendata.calls_per_spectral":
        ("spectral.all_node_eigendata", "spectral"),
    "framings.flat_linearization.calls_per_flat":
        ("framings.flat_linearization", "flat"),
    "linalg.integer_rank.calls_per_twist": ("linalg.integer_rank", "twist"),
}

COUNTS = {
    "linalg.exact_nullspace.nnz": "count",
    "linalg.exact_nullspace.den_bits_max": "bits",
    "spectral.random_regular_higgs.draws": "count",
}

CLI = {
    "cli.interp_s": "s",
    "cli.import_s": "s",
    "cli.numpy_import_s": "s",
    "cli.json_s": "s",
    "cli.report_bytes": "bytes",
}

TRACE = {
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.coverage_frac": ("ratio", "higher"),
    "trace.missing_functions": ("count", "lower"),
    "trace.spans": ("count", "lower"),
}

EXPECTED_FUNCTIONS = tuple(sorted(
    set(SELF_S) | set(TOTAL_S) | set(CALLS)
    | {fn for fn, _ in CALLS_PER_OP.values()}))


def per_layer_spec():
    """(name, unit, better) for every per-layer metric, in report order."""
    spec = [(f"{fn}.self_s", "s", "lower") for fn in SELF_S]
    spec += [(f"{fn}.total_s", "s", "lower") for fn in TOTAL_S]
    spec += [(f"{fn}.calls", "count", "lower") for fn in CALLS]
    spec += [(name, "count", "lower") for name in CALLS_PER_OP]
    spec += [(name, unit, "lower") for name, unit in COUNTS.items()]
    spec += [(name, unit, "lower") for name, unit in CLI.items()]
    spec += [(name, unit, better) for name, (unit, better) in TRACE.items()]
    return spec
