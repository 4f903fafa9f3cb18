import contextlib
import io
import json
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcurves import cli
from graphcurves import higgs as higgs_mod
from graphcurves import hitchin as hitchin_mod
from graphcurves import linalg as linalg_mod
from graphcurves import sections as sections_mod
from graphcurves import spectral as spectral_mod
from graphcurves.framings import Framing
from graphcurves.graphs import catalog_graph, graph_to_json, random_trivalent
from graphcurves.higgs import random_higgs_field
from graphcurves.hitchin import (hitchin_edge_coords, hitchin_jacobian,
                                 jacobian_fd_error)
from graphcurves.scalars import EXACT, FLOAT

from helpers import bits, cli_env

PKG = [sys.executable, "-m", "graphcurves"]


def run_cli(*args, expect=0):
    proc = subprocess.run(PKG + list(args), capture_output=True, text=True,
                          env=cli_env())
    assert proc.returncode == expect, proc.stderr
    return proc


def report(*args):
    proc = run_cli(*args)
    return json.loads(proc.stdout)


def test_envelope_shape():
    out = report("graph", "--graph", "theta")
    assert set(out) == {"command", "inputs", "domain", "seed", "results"}
    assert out["command"] == "graph"
    assert out["domain"] == "exact"
    assert len(out["inputs"]) == 16


def test_graph_command_frozen():
    out = report("graph", "--graph", "theta")
    assert out["results"] == {
        "edges": 3,
        "genus": 2,
        "hash": "f1f52baf2dcd424e",
        "loops": 0,
        "vertices": 2,
    }


def test_graph_command_counts_loops():
    out = report("graph", "--graph", "dumbbell")
    assert out["results"]["loops"] == 2


def test_random_graph_generation():
    out = report("graph", "--graph", "theta", "--random", "6", "--seed", "3")
    assert out["results"]["vertices"] == 6
    assert out["results"]["genus"] == 4


def test_sections_command():
    out = report("sections", "--graph", "k4")
    assert out["results"] == {
        "bires_rank": 6,
        "dim_2K": 6,
        "dim_K": 3,
        "genus": 3,
        "rank_2K": 6,
        "rank_K": 5,
    }


def test_flat_command():
    out = report("flat", "--graph", "k4", "--seed", "9")
    res = out["results"]
    assert res["local_dim"] == 6
    assert res["vertex_residual"] == 0
    assert res["linearization_matches_higgs"] is True
    assert res["flags"]["all_meridians_trivial"] is True


def test_higgs_command():
    out = report("higgs", "--graph", "theta", "--seed", "5")
    assert out["results"]["dim"] == 3
    assert out["results"]["rank"] == 9
    assert out["results"]["residual"] == 0


def test_hitchin_command():
    out = report("hitchin", "--graph", "theta", "--seed", "5",
                 "--domain", "float")
    res = out["results"]
    assert res["jacobian_rank"] == 3
    assert res["regular"] is True
    assert res["fd_rel_err"] < 1e-6


@pytest.mark.parametrize("domain", ["exact", "float"])
def test_report_scalar_encoding(domain):
    # exact scalars print as "p/q" (or integer) strings, floats as [re, im]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["hitchin", "--graph", "theta", "--seed", "5",
                         "--domain", domain]) == 0
    framing = Framing.random(catalog_graph("theta"), 5, domain)
    coords = hitchin_edge_coords(random_higgs_field(framing, 5))
    printed = json.loads(out.getvalue())["results"]["edge_coords"]
    assert len(printed) == len(coords) == 3
    for text, x in zip(printed, coords):
        if domain == "exact":
            assert isinstance(x, Fraction)
            assert isinstance(text, str)
            assert re.fullmatch(r"-?\d+(/\d+)?", text)
            assert Fraction(text) == x
        else:
            assert isinstance(x, complex)
            assert isinstance(text, list) and len(text) == 2
            assert all(type(part) is float for part in text)
            assert complex(*text) == x


def test_spectral_command():
    out = report("spectral", "--graph", "theta", "--seed", "5")
    res = out["results"]
    assert out["domain"] == "float"  # forced, spectral data is numeric
    assert res["genus"] == 5
    assert res["components"] == 2
    assert res["nodes"] == 6
    assert res["fixed_points"] == 4
    assert res["quotient_matches_base"] is True
    assert res["prym"] == {"b1_base": 2, "b1_spectral": 5,
                           "prym_dim": 3, "pullback_rank": 2}
    assert res["roundtrip_err"] < 1e-8


def _higgs_solves(monkeypatch, *argv):
    """Domains of the Higgs kernel solves one in-process CLI call makes, and
    for each solved framing, in the order the framings were made, whether
    its Higgs basis made its HiggsFields during the call and how many
    times the basis was converted: the number of basis fields whose
    coefficients went through _to_pairs or _clear_denominators, over the
    basis size."""
    domains, framings, converted = [], [], []
    init = Framing.__init__

    def count(name, domain_of_call, module=higgs_mod):
        # the exact solve (sections._section_space) reads its kernel off
        # sparse integer rows and the float one takes its kernel as an
        # array, both past solve_kernel
        solve = getattr(module, name)

        def counted(*args):
            domains.append(domain_of_call(args))
            return solve(*args)

        monkeypatch.setattr(module, name, counted)

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        framings.append(self)

    def record(module, name, rows_of):
        convert = getattr(module, name)

        def wrapper(*args):
            # kept alive, so no two recorded rows share an id
            converted.extend(rows_of(args[0]))
            return convert(*args)

        monkeypatch.setattr(module, name, wrapper)

    for module in (higgs_mod, hitchin_mod, spectral_mod):
        if hasattr(module, "_to_pairs"):
            record(module, "_to_pairs", list)
        if hasattr(module, "_clear_denominators"):
            record(module, "_clear_denominators", lambda vec: [vec])
    count("solve_kernel", lambda args: args[2])
    count("_integer_kernel", lambda args: EXACT, sections_mod)
    count("_float_kernel", lambda args: FLOAT)
    monkeypatch.setattr(Framing, "__init__", recorded)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(list(argv)) == 0, argv
    bases = [f._higgs_space.basis for f in framings if f._higgs_space is not None]
    made = [basis._fields is not None for basis in bases]
    times = Counter(map(id, converted))
    conversions = [sum(times[id(psi.coefficients)] for psi in basis) / len(basis)
                   for basis in bases]
    return domains, made, conversions


@pytest.mark.parametrize("trials", [1, 2])
@pytest.mark.parametrize("argv, per_trial", [
    (("hitchin", "--domain", "float"), [FLOAT]),
    (("hitchin", "--domain", "exact"), [EXACT, FLOAT]),
    (("higgs", "--domain", "exact"), [EXACT]),
    (("higgs", "--domain", "float"), [FLOAT]),
    (("spectral",), [FLOAT]),
], ids=["hitchin-float", "hitchin-exact", "higgs-exact", "higgs-float", "spectral"])
def test_one_higgs_solve_per_framing(monkeypatch, argv, per_trial, trials):
    # each framing's Higgs space is solved once: a float hitchin trial
    # checks its Jacobian on its own framing, an exact one on one float
    # framing of the same seed.  No basis is ever converted and no basis
    # makes its HiggsFields: the kernels read the working form each solve
    # made, the exact one off the integer echelon rows, the float one
    # from the solve's own array
    domains, made, converted = _higgs_solves(
        monkeypatch, *argv, "--graph", "k4", "--seed", "1", "--trials", str(trials))
    assert domains == per_trial * trials
    assert made == [False] * len(per_trial) * trials
    assert converted == [0] * len(per_trial) * trials


@pytest.mark.parametrize("trials", [1, 2])
@pytest.mark.parametrize("domain, jacobians, ranks", [
    (FLOAT, 1, 1),
    (EXACT, 1, 0),
])
def test_one_jacobian_per_float_hitchin_trial(monkeypatch, domain, jacobians,
                                              ranks, trials):
    # a float trial checks fd_rel_err against the Jacobian it reports: one
    # hitchin_jacobian and one float rank; an exact trial builds its exact
    # Jacobian (an exact rank), and its float check on its float framing
    # builds Jacobian rows only, with no hitchin_jacobian and no float rank
    calls = {"hitchin_jacobian": 0, "float_rank": 0}

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(hitchin_mod, "hitchin_jacobian")
    counted(linalg_mod, "float_rank")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["hitchin", "--graph", "k4", "--seed", "1", "--domain",
                         domain, "--trials", str(trials)]) == 0
    assert calls == {"hitchin_jacobian": jacobians * trials,
                     "float_rank": ranks * trials}


def _independent_float_hitchin(graph, seed):
    """A float hitchin trial as two independently built framings and fields."""
    framing = Framing.random(graph, seed, FLOAT)
    phi = random_higgs_field(framing, seed)
    check_framing = Framing.random(graph, seed, FLOAT)
    check_phi = random_higgs_field(check_framing, seed)
    return {"edge_coords": hitchin_edge_coords(phi),
            "jacobian_rank": hitchin_jacobian(phi, framing).rank,
            "fd_rel_err": jacobian_fd_error(check_phi, check_framing)}


def test_float_hitchin_on_one_framing_matches_two(tmp_path):
    path = tmp_path / "v20.json"
    path.write_text(json.dumps(graph_to_json(random_trivalent(20, 1))))
    for spec in ("theta", "k4", str(path)):
        graph, _ = cli._resolve_graph(spec)
        for seed in range(3):
            args = cli.build_parser().parse_args(
                ["hitchin", "--graph", spec, "--seed", str(seed), "--domain", "float"])
            res = cli.cmd_hitchin(args)["results"]
            want = _independent_float_hitchin(graph, seed)
            for key, value in want.items():
                assert bits(res[key]) == bits(value), (spec, seed, key)


def test_trials_loop():
    out = report("higgs", "--graph", "dumbbell", "--seed", "1",
                 "--trials", "3")
    per = out["results"]["per_trial"]
    assert len(per) == 3
    assert [t["seed"] for t in per] == [1, 2, 3]
    assert all(t["dim"] == 3 for t in per)


@pytest.mark.parametrize(
    "args",
    [
        ("graph", "--graph", "k33"),
        ("sections", "--graph", "prism"),
        ("flat", "--graph", "theta", "--seed", "2"),
        ("higgs", "--graph", "k4", "--seed", "3"),
        ("hitchin", "--graph", "theta", "--seed", "4", "--domain", "float"),
        ("spectral", "--graph", "dumbbell", "--seed", "5"),
    ],
)
def test_output_is_deterministic(args):
    first = run_cli(*args).stdout
    second = run_cli(*args).stdout
    assert first == second


def test_wall_time_on_stderr_only():
    proc = run_cli("graph", "--graph", "theta")
    assert proc.stderr.startswith("# wall_time_ms=")
    assert "wall_time" not in proc.stdout


NUMPY_FREE_SCRIPT = """
import contextlib, io, sys
from graphcurves import cli

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(list(argv)) == 0, argv

run("graph", "--graph", "k33")
for command in ("sections", "flat", "higgs"):
    run(command, "--graph", "k33", "--domain", "exact")
assert "numpy" not in sys.modules, "an exact run imported numpy"
run("higgs", "--graph", "k33", "--domain", "float")
assert "numpy" in sys.modules
"""


def test_exact_subcommands_never_import_numpy():
    # numpy is imported by the first float routine only, so the exact
    # subcommands start without it; a float run in the same process
    # still loads it and succeeds
    proc = subprocess.run([sys.executable, "-c", NUMPY_FREE_SCRIPT],
                          capture_output=True, text=True, env=cli_env())
    assert proc.returncode == 0, proc.stderr


LOADED_MODULES_SCRIPT = """
import contextlib, io, json, sys
from graphcurves import cli

with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(sys.argv[1:]) == 0, sys.argv
print(json.dumps(sorted(name for name in sys.modules
                        if name.startswith("graphcurves."))))
"""
GRAPH_MODULES = {"cli", "errors", "graphs", "scalars"}
SECTION_MODULES = GRAPH_MODULES | {"linalg", "sections"}
HIGGS_MODULES = SECTION_MODULES | {"framings", "higgs", "matrices"}
HITCHIN_MODULES = HIGGS_MODULES | {"hitchin"}
LOADED_BY = {"graph": GRAPH_MODULES, "sections": SECTION_MODULES,
             "flat": HIGGS_MODULES, "higgs": HIGGS_MODULES,
             "hitchin": HITCHIN_MODULES, "spectral": HITCHIN_MODULES | {"spectral"}}


@pytest.mark.parametrize("command", LOADED_BY)
def test_each_subcommand_loads_only_its_layers(command):
    # cli imports each subcommand's layers when it runs, so a fresh
    # process loads (and, with bytecode caching off, compiles) only those;
    # an eager import at module level shows up here
    proc = subprocess.run(
        [sys.executable, "-c", LOADED_MODULES_SCRIPT, command, "--graph", "k4"],
        capture_output=True, text=True, env=cli_env())
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert loaded == sorted(f"graphcurves.{m}" for m in LOADED_BY[command])


def test_unknown_graph_name_exits_2():
    proc = subprocess.run(PKG + ["graph", "--graph", "petersen"],
                          capture_output=True, text=True, env=cli_env())
    assert proc.returncode == 2


THETA_PAIRING = [[0, 3], [1, 4], [2, 5]]
MALFORMED_GRAPHS = [
    {"vertices": 2, "pairing": [[0, 0], [1, 2], [3, 4], [5, 5]]},
    {"pairing": [], "dart_vertex": []},
    {"vertices": 2, "pairing": 5},
    {"vertices": 2, "pairing": [["0", 3], [1, 4], [2, 5]]},
    {"vertices": "2", "pairing": THETA_PAIRING},
    {"vertices": 2.0, "pairing": THETA_PAIRING},
    {"vertices": 200000, "pairing": [[0, 1], [2, 3], [4, 5]]},
]


def test_malformed_graph_file_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    for obj in MALFORMED_GRAPHS:
        bad.write_text(json.dumps(obj))
        proc = subprocess.run(PKG + ["graph", "--graph", str(bad)],
                              capture_output=True, text=True, env=cli_env())
        assert proc.returncode == 2, (obj, proc.stderr)
        assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_trials_below_one_exits_2(trials):
    proc = subprocess.run(PKG + ["higgs", "--graph", "theta", "--trials", trials],
                          capture_output=True, text=True, env=cli_env())
    assert proc.returncode == 2


def test_graph_file_input(tmp_path):
    path = tmp_path / "theta.json"
    path.write_text(json.dumps(graph_to_json(catalog_graph("theta"))))
    out = report("graph", "--graph", str(path))
    by_name = report("graph", "--graph", "theta")
    assert out["results"] == by_name["results"]


def test_out_file_matches_stdout(tmp_path):
    dest = tmp_path / "report.json"
    proc = run_cli("higgs", "--graph", "theta", "--seed", "5",
                   "--out", str(dest))
    assert json.loads(dest.read_text()) == json.loads(proc.stdout)


def test_stdout_is_sorted_and_indented():
    proc = run_cli("graph", "--graph", "theta")
    doc = json.loads(proc.stdout)
    assert proc.stdout == json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("spec", [None, "a" * 5000, "a/" * 3000],
                         ids=["directory", "long_name", "long_path"])
def test_graph_directory_exits_2(tmp_path, spec):
    # a directory, and names too long for the file system (ENAMETOOLONG)
    proc = run_cli("graph", "--graph", str(tmp_path) if spec is None else spec,
                   expect=2)
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def test_graph_file_not_utf8_exits_2(tmp_path):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'{"vertices": 2, "name": "\xe9\xff"}')
    proc = run_cli("graph", "--graph", str(bad), expect=2)
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("text", [
    "[" * 200000 + "]" * 200000,  # nested beyond the decoder's recursion limit
    '{"vertices": 2, "pairing": [[0, 3], [1, 4], [2, 5]], '
    '"dart_vertex": [0, 0, 0, 1, 1, ' + "1" * 5000 + "]}",  # int digit limit
], ids=["deep", "long_int"])
def test_unparsable_graph_file_exits_2(tmp_path, text):
    path = tmp_path / "graph.json"
    path.write_text(text)
    proc = run_cli("graph", "--graph", str(path), expect=2)
    assert proc.stderr.startswith(f"error: cannot parse {str(path)!r} as JSON")
    assert "Traceback" not in proc.stderr


def test_unwritable_out_exits_2_before_printing(tmp_path):
    dest = tmp_path / "missing" / "report.json"
    proc = run_cli("graph", "--graph", "theta", "--out", str(dest), expect=2)
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


# -- property test at the input boundary --------------------------------

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10**6) | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12)
_WRONG = (st.none() | st.booleans() | st.floats() | st.text(max_size=3)
          | st.integers(-3, 10**9) | st.lists(st.integers(-1, 8), max_size=3))


@st.composite
def _near_graphs(draw):
    """A valid graph's JSON with one or two fields broken."""
    obj = graph_to_json(random_trivalent(2 * draw(st.integers(1, 4)),
                                         draw(st.integers(0, 3))))
    for _ in range(draw(st.integers(1, 2))):
        key = draw(st.sampled_from(["vertices", "pairing", "dart_vertex"]))
        how = draw(st.sampled_from(["drop", "replace", "entry", "shorten",
                                    "extend"]))
        if how == "drop":
            obj.pop(key, None)
        elif how == "replace" or not isinstance(obj.get(key), list) \
                or not obj[key]:
            obj[key] = draw(_WRONG)
        elif how == "entry":
            i = draw(st.integers(0, len(obj[key]) - 1))
            obj[key][i] = draw(_WRONG | st.lists(_WRONG, max_size=3))
        elif how == "shorten":
            obj[key] = obj[key][:-1]
        else:
            obj[key] = obj[key] + [obj[key][0]]
    return obj


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.one_of(_JSON, _near_graphs()))
def test_graph_file_fuzz_exits_0_or_2(tmp_path_factory, obj):
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(obj))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["graph", "--graph", str(path)])
    assert code in (0, 2), err.getvalue()


# -- the options each subcommand takes -----------------------------------

# graph takes no --domain or --trials, sections no --trials, and spectral
# runs in the float domain only.
NOT_TAKEN = [
    ("graph", "--domain", "exact"),
    ("graph", "--domain", "float"),
    ("graph", "--trials", "2"),
    ("sections", "--trials", "2"),
    ("spectral", "--domain", "exact"),
]


@pytest.mark.parametrize("args", NOT_TAKEN)
def test_option_not_taken_exits_2(args):
    proc = run_cli(*args, expect=2)
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    with contextlib.redirect_stderr(io.StringIO()), \
            pytest.raises(SystemExit) as exc:
        cli.main(list(args))
    assert exc.value.code == 2
