"""Output checks for every benchmark operation.

Two kinds of check.  Invariants hold on every seed: dimensions, ranks,
genus counts and error bounds that the mathematics fixes.  Digests pin
the exact-valued fields of every exact-domain report (and of every
twist, whose parameters are powers of two so its gluings are exact) on
the digest seed, against values frozen from the seed commit in
``digests.json``.  Float diagnostics such as ``fd_rel_err`` are left out
of the digest.

The tolerances are frozen here rather than read from the package, so a
change to the package's own constants cannot loosen the benchmark.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

DIGEST_SEED = 1
DIGEST_FILE = Path(__file__).with_name("digests.json")

EIGEN_TOL = 1e-10         # matching_residual bound (package EIGEN_TOL)
RECONSTRUCT_TOL = 1e-8    # roundtrip_err bound (package RECONSTRUCT_TOL)
FD_TOL = 1e-6             # fd_rel_err bound (acceptance criterion 06)
FLOAT_RESIDUAL_TOL = 1e-8
TWIST_RESTORE_TOL = 1e-12

FLOAT_DIAGNOSTICS = ("fd_rel_err",)


def _trial_results(results):
    """Per-trial result dicts of a report (one unless --trials was given)."""
    return results["per_trial"] if "per_trial" in results else [results]


def _strip(results):
    if "per_trial" in results:
        return dict(results, per_trial=[_strip(t) for t in results["per_trial"]])
    return {k: v for k, v in results.items() if k not in FLOAT_DIAGNOSTICS}


def digest(kind: str, report: dict):
    """Digest of the exact-valued fields, or None for a float report."""
    if kind == "twist":
        payload = {k: report[k] for k in
                   ("cycles", "multidegree", "gluings")}
    elif report.get("domain") == "exact":
        payload = dict(report, results=_strip(report["results"]))
    else:
        return None
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def load_digests(workload: str) -> dict:
    if not DIGEST_FILE.exists():
        return {}
    frozen = json.loads(DIGEST_FILE.read_text())
    if frozen.get("seed") != DIGEST_SEED:
        return {}
    return frozen.get("workloads", {}).get(workload, {})


def _residual_ok(value, domain) -> bool:
    return value == 0 if domain == "exact" else value <= FLOAT_RESIDUAL_TOL


def _generic_dim_ok(dim, generic, domain) -> bool:
    """The Higgs space has dimension 3g-3 at generic framings, never less.

    Random complex framings are generic.  The exact domain's integer
    shear framings are special now and then on the genus-2 catalog
    graphs (about 1 round in 100), where the dimension is 3g-2; there
    the flat and Higgs dimensions of the round must still agree.
    """
    return dim == generic if domain == "float" else dim >= generic


def check_round_dims(dims: dict) -> list:
    """flat's local dimension and higgs's dimension for one framing agree."""
    if len(dims) == 2 and dims["flat"] != dims["higgs"]:
        return [f"higgs: dim {dims['higgs']} != flat local_dim {dims['flat']} "
                "for the same framing"]
    return []


def _check_results(kind, res, expect, domain, problems):
    g = expect["genus"]
    v = expect["vertices"]
    e = 3 * g - 3

    def need(cond, what):
        if not cond:
            problems.append(f"{kind}: {what}")

    if kind == "graph":
        need(res["genus"] == g and res["vertices"] == v and res["edges"] == e,
             f"counts {res['vertices']}/{res['edges']}/{res['genus']}")
        need(res["hash"] == expect["hash"], "canonical hash differs")
    elif kind == "sections":
        need(res["genus"] == g, "genus")
        need(res["dim_K"] == g, f"dim_K {res['dim_K']} != g")
        need(res["dim_K"] + res["rank_K"] == 2 * v, "rank_K + dim_K != 2V")
        need(res["dim_2K"] == e, f"dim_2K {res['dim_2K']} != 3g-3")
        need(res["dim_2K"] + res["rank_2K"] == 3 * v, "rank_2K + dim_2K != 3V")
        need(res["bires_rank"] == e, f"bires_rank {res['bires_rank']} != 3g-3")
    elif kind == "flat":
        need(_generic_dim_ok(res["local_dim"], e, domain),
             f"local_dim {res['local_dim']} (3g-3 = {e})")
        need(_residual_ok(res["vertex_residual"], domain), "vertex residual")
        need(res["linearization_matches_higgs"] is True,
             "linearization does not match the Higgs system")
    elif kind == "higgs":
        need(_generic_dim_ok(res["dim"], e, domain),
             f"dim {res['dim']} (3g-3 = {e})")
        need(res["dim"] + res["rank"] == 6 * v, "rank + dim != 6V")
        need(_residual_ok(res["residual"], domain),
             f"residual {res['residual']}")
    elif kind == "hitchin":
        # Full rank 3g-3 at fields with regular determinant; a non-generic
        # field (the exact domain draws small integer combinations) may
        # drop rank, but never exceed it.
        rank_ok = (res["jacobian_rank"] == e if res["regular"]
                   else res["jacobian_rank"] <= e)
        if domain == "float":
            rank_ok = res["jacobian_rank"] == e
        need(rank_ok, f"jacobian_rank {res['jacobian_rank']} with regular="
                      f"{res['regular']} (3g-3 = {e})")
        need(len(res["edge_coords"]) == e, "edge coordinate count")
        need(res["fd_rel_err"] <= FD_TOL, f"fd_rel_err {res['fd_rel_err']}")
    elif kind == "spectral":
        prym = res["prym"]
        need(res["genus"] == 4 * g - 3, f"cover genus {res['genus']} != 4g-3")
        need(res["components"] == v and res["nodes"] == 2 * e,
             "component or node count")
        need((prym["b1_base"], prym["b1_spectral"], prym["pullback_rank"],
              prym["prym_dim"]) == (g, 4 * g - 3, g, e),
             f"prym data {prym}")
        need(res["roundtrip_err"] <= RECONSTRUCT_TOL,
             f"roundtrip_err {res['roundtrip_err']}")
        need(res["matching_residual"] <= EIGEN_TOL,
             f"matching_residual {res['matching_residual']}")


def check_cli_report(kind, report, expect, domain, seed) -> list:
    """Problems with one CLI report; an empty list means it passed."""
    problems = []
    try:
        if report["command"] != kind:
            problems.append(f"{kind}: command field {report['command']!r}")
        if kind != "graph":
            if report["seed"] != seed:
                problems.append(f"{kind}: seed field {report['seed']}")
            if domain is not None and report["domain"] != domain:
                problems.append(f"{kind}: domain field {report['domain']}")
        for res in _trial_results(report["results"]):
            _check_results(kind, res, expect, report["domain"], problems)
    except (KeyError, TypeError, IndexError) as exc:
        problems.append(f"{kind}: malformed report ({exc!r})")
    return problems


def check_twist_report(report, expect) -> list:
    g = expect["genus"]
    problems = []
    if report["cycles"] != 3 * g - 3:
        problems.append(f"twist: {report['cycles']} cycles != 3g-3")
    if report["multidegree"] != report["base_multidegree"]:
        problems.append("twist: multidegree changed")
    if report["restore_err"] > TWIST_RESTORE_TOL:
        problems.append(f"twist: inverse leaves gluings off by "
                        f"{report['restore_err']}")
    return problems
