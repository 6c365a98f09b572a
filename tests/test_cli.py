import argparse
import hashlib
import json
import subprocess
import sys
from functools import cached_property

import jsonschema
import pytest

import eigraph.arithmetic
import eigraph.ideals
import eigraph.verify
from eigraph import (
    ClassPartition,
    ClassQuotient,
    Ideal,
    InputError,
    all_pairs_distances,
    build_aig,
    build_essential_graph,
    class_partition,
    compute_zagreb_report,
    constructive_resolving_set,
    dim_bruteforce,
    dim_formula,
    enumerate_vertices,
    factor,
    to_json_dict,
)
from eigraph import cli
from eigraph.cli import (
    CLASSES_JSON_SCHEMA,
    DISTANCES_JSON_SCHEMA,
    main,
    run_verify,
)
from eigraph.graph import GRAPH_JSON_SCHEMA, IdealGraph
from eigraph.metricdim import DIM_JSON_SCHEMA
from eigraph.verify import CHECK_CATEGORIES, VERIFY_JSON_SCHEMA
from eigraph.zagreb import ZAGREB_JSON_SCHEMA

from conftest import LARGE_T, composites


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_factor_command(capsys):
    code, out, _ = run_cli(capsys, "factor", "2700")
    assert code == 0
    assert "factors = 2^2 * 3^3 * 5^2" in out
    assert "divisor_count = 36" in out

    code, out, _ = run_cli(capsys, "factor", "2700", "--format", "json")
    payload = json.loads(out)
    assert payload["factors"] == [[2, 2], [3, 3], [5, 2]]


def test_graph_dot_output(capsys):
    code, out, _ = run_cli(capsys, "graph", "30", "--format", "dot")
    assert code == 0
    assert out.count("[label=") == 6
    assert out.count(" -- ") == 6


def test_graph_json_output(capsys):
    code, out, _ = run_cli(capsys, "graph", "210", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, GRAPH_JSON_SCHEMA)
    assert len(payload["vertices"]) == 14
    assert len(payload["edges"]) == 25


def test_graph_text_output(capsys):
    code, out, _ = run_cli(capsys, "graph", "2700")
    assert code == 0
    assert "T = 34" in out
    assert "m = 11" in out
    assert "classes = {1}:6 {2}:4 {3}:6 {1,2}:2 {1,3}:3 {2,3}:2" in out


def test_aig_command(capsys):
    code, out, _ = run_cli(capsys, "aig", "12", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, GRAPH_JSON_SCHEMA)
    assert payload["kind"] == "annihilating"
    assert len(payload["edges"]) == 3


def test_invalid_inputs_exit_1(capsys):
    assert run_cli(capsys, "graph", "7")[0] == 1
    assert run_cli(capsys, "graph", "3")[0] == 1
    assert run_cli(capsys, "dim", "11")[0] == 1
    assert run_cli(capsys, "dim", "60", "--method", "bogus")[0] == 1
    assert run_cli(capsys, "zagreb", "100", "50")[0] == 1
    assert run_cli(capsys, "verify", "10", "4")[0] == 1
    assert run_cli(capsys, "graph", "2700", "--max-t", "10")[0] == 1
    assert run_cli(capsys, "dim", "2310", "--method", "brute", "--budget", "-1")[0] == 1
    assert run_cli(capsys, "verify", "4", "10", "--budget", "-1")[0] == 1


_COMMANDS = ("factor", "graph", "aig", "classes", "distances", "dim", "zagreb", "verify")
# Per subcommand: its positionals, and one valid call's options.
_VALID_CALLS = {
    "factor": (["60"], ["--format", "json"]),
    "graph": (["60"], ["--format", "dot", "--max-t", "100"]),
    "aig": (["60"], ["--output", "out.json", "--format", "json"]),
    "classes": (["60"], ["--format=json"]),
    "distances": (["60"], ["--max-t", "10"]),
    "dim": (["60"], ["--method", "brute", "--budget", "5", "--format", "json"]),
    "zagreb": (["60", "90"], ["--format", "csv"]),
    "verify": (["4", "30"], ["--checks", "adjacency,dim", "--budget", "7"]),
}


def _parse(parser, argv):
    try:
        return parser.parse_args(argv)
    except InputError as exc:
        return str(exc)


@pytest.mark.parametrize("command", _COMMANDS)
def test_parser_is_the_same_at_every_command(capsys, monkeypatch, command):
    # main builds only the named subcommand's parser; it must parse, fail and
    # print help exactly as the parser of every subcommand does
    positionals, options = _VALID_CALLS[command]
    argvs = [
        [command, *positionals, *options],
        [command, *positionals, "--bogus"],
        [command, *positionals, "--format", "xml"],
        [command],
        [command, "x", *positionals[1:]],
        [command, *positionals, "extra"],
    ]
    if command in ("dim", "verify"):
        argvs.append([command, *positionals, "--budget", "-1"])
    for argv in argvs:
        want = _parse(cli.build_parser(), argv)
        assert _parse(cli.build_parser(command), argv) == want, argv
    assert isinstance(_parse(cli.build_parser(command), argvs[0]), argparse.Namespace)
    assert all(isinstance(_parse(cli.build_parser(), argv), str) for argv in argvs[1:])

    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as full:
        cli.build_parser().parse_args([command, "-h"])
    want = capsys.readouterr()
    with pytest.raises(SystemExit) as one:
        main([command, "-h"])
    assert (one.value.code, capsys.readouterr()) == (full.value.code, want) == (0, (want.out, ""))
    assert want.out.startswith(f"usage: eigraph {command} [-h]")


def test_main_builds_only_the_named_subparser(capsys, monkeypatch):
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counting(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    assert run_cli(capsys, "dim", "12")[0] == 0
    assert built == ["dim"]
    built.clear()
    code, out, err = run_cli(capsys, "nope")
    assert (code, out, built) == (1, "", list(_COMMANDS))
    assert err.startswith("error: argument command: invalid choice: 'nope'")
    assert err.count("\n") == 1 and all(f"'{name}'" in err for name in _COMMANDS)


# Every entry point that lists vertices: library calls taking (f, max_t), and
# CLI argv with n inserted after the command.
_LISTING_LIBRARY = {
    "build_essential_graph": build_essential_graph,
    "build_aig": build_aig,
}
_LISTING_CLI = [
    "classes",
    "graph",
    "aig",
    "distances",
    "zagreb",
    "dim",
    "dim --method constructive",
    "dim --method brute",
]
_CAP_CASES = [
    (entry, via) for entry in [*_LISTING_LIBRARY, *_LISTING_CLI] for via in ("max_t", "env")
]


@pytest.mark.parametrize("entry, via", _CAP_CASES)
def test_vertex_cap_is_checked_before_any_vertex_is_listed(monkeypatch, capsys, entry, via):
    def no_listing(*args):
        raise AssertionError("vertices listed before the cap was checked")

    monkeypatch.setattr(eigraph.ideals, "product", no_listing)
    monkeypatch.delenv("EIG_MAX_T", raising=False)
    if via == "env":
        monkeypatch.setenv("EIG_MAX_T", "10")
    message = "n = 2700 yields T = 34 vertices, cap is 10"
    if entry in _LISTING_LIBRARY:
        with pytest.raises(InputError, match=message):
            _LISTING_LIBRARY[entry](factor(2700), 10 if via == "max_t" else None)
        return
    command, *options = entry.split()
    argv = [command, "2700", *options] + (["--max-t", "10"] if via == "max_t" else [])
    assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")


def test_commands_listing_no_vertex_ignore_the_cap(monkeypatch, capsys):
    def no_listing(*args):
        raise AssertionError("vertices listed")

    monkeypatch.setattr(eigraph.ideals, "product", no_listing)
    code, out, _ = run_cli(capsys, "dim", "2700", "--method", "formula", "--max-t", "5")
    assert code == 0 and "T = 34" in out
    code, out, _ = run_cli(capsys, "factor", "2700", "--max-t", "5")
    assert code == 0 and "divisor_count = 36" in out


def test_verify_iso_obeys_only_the_callers_cap(monkeypatch, capsys):
    monkeypatch.setenv("EIG_MAX_T", "5")
    code, out, err = run_cli(capsys, "verify", "30", "30", "--max-t", "100", "--checks", "iso")
    assert (code, err) == (0, "")
    assert "FAIL" not in out


def test_io_failure_exit_3(capsys):
    code, _, err = run_cli(
        capsys, "graph", "30", "--format", "dot", "--output", "/nonexistent/dir/a.dot"
    )
    assert code == 3
    assert "i/o error" in err


def test_output_file(tmp_path, capsys):
    target = tmp_path / "g.json"
    code, out, _ = run_cli(capsys, "graph", "30", "--format", "json", "--output", str(target))
    assert code == 0 and out == ""
    payload = json.loads(target.read_text())
    assert payload["n"] == 30


def test_classes_command(capsys):
    code, out, _ = run_cli(capsys, "classes", "2700", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, CLASSES_JSON_SCHEMA)
    assert payload["m"] == 11
    assert [c["size"] for c in payload["classes"]] == [6, 4, 6, 2, 3, 2]

    code, out, _ = run_cli(capsys, "classes", "12")
    assert "X = 2" in out
    assert "X_{1} = 4" in out
    assert "X_{2} = 3 6" in out


def test_distances_command(capsys):
    code, out, _ = run_cli(capsys, "distances", "30", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, DISTANCES_JSON_SCHEMA)
    idx = {d: i for i, d in enumerate(payload["vertices"])}
    assert payload["distances"][idx[6]][idx[10]] == 3

    code, out, _ = run_cli(capsys, "distances", "30")
    assert "diameter = 3" in out


def test_dim_command_auto(capsys):
    code, out, _ = run_cli(capsys, "dim", "2700", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, DIM_JSON_SCHEMA)
    assert payload["dim"] == 27
    assert payload["exact"] is True
    assert payload["method"] == "constructive"
    assert payload["lower_bound"] == 27
    assert len(payload["witness"]) == 27
    assert payload["representations"] is not None


def test_dim_command_brute(capsys):
    code, out, _ = run_cli(capsys, "dim", "2310", "--method", "brute", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 5 and payload["exact"] is True

    code, out, _ = run_cli(capsys, "dim", "60", "--method", "brute")
    assert code == 0
    assert "dim = 4" in out


def test_dim_command_formula_and_constructive(capsys):
    code, out, _ = run_cli(capsys, "dim", "30", "--format", "json")
    payload = json.loads(out)
    assert payload["dim"] == 2 and payload["method"] == "constructive"
    assert payload["witness"] == [6, 10]

    code, out, _ = run_cli(capsys, "dim", "30030", "--method", "constructive", "--format", "json")
    payload = json.loads(out)
    assert payload["dim"] == 6 and payload["exact"] is False
    assert payload["witness"] == [2310, 2730, 4290, 6006, 10010, 15015]


def _built_outputs(f):
    """graph, aig and distances outputs as written by building each payload whole."""
    ess, aig = build_essential_graph(f), build_aig(f)
    dist = all_pairs_distances(ess)
    payload = {
        "n": f.n,
        "kind": ess.kind,
        "vertices": [v.d for v in ess.vertices],
        "distances": dist,
    }
    lines = ["d " + " ".join(str(v.d) for v in ess.vertices)]
    lines += [f"{v.d} " + " ".join(map(str, row)) for v, row in zip(ess.vertices, dist)]
    lines.append(f"diameter = {max(map(max, dist))}")
    return {
        ("graph", "--format", "json"): json.dumps(to_json_dict(ess), indent=2) + "\n",
        ("aig", "--format", "json"): json.dumps(to_json_dict(aig), indent=2) + "\n",
        ("distances", "--format", "json"): json.dumps(payload, indent=2) + "\n",
        ("distances",): "\n".join(lines) + "\n",
    }


def test_streamed_outputs_equal_built_outputs(capsys, factored_100k):
    # rows from the bitsets and the mask-distance law, against the whole
    # payloads of to_json_dict and all_pairs_distances (BFS): the writers
    # themselves for every composite n <= 3000, where the parser would cost
    # more than they do, and main for the large-T n
    for f in composites(factored_100k, 4, 3000):
        ess = build_essential_graph(f)
        streamed = [
            cli._graph_json(ess),
            cli._graph_json(build_aig(f)),
            cli._distances_json(ess.classes),
            cli._distances_text(ess.classes),
        ]
        outputs = list(map("".join, streamed))
        assert outputs == list(_built_outputs(f).values()), f.n
        bfs_max = max(map(max, all_pairs_distances(ess)))
        assert outputs[3].endswith(f"\ndiameter = {bfs_max}\n"), f.n
    for f in map(factor, LARGE_T):
        for (command, *options), want in _built_outputs(f).items():
            assert run_cli(capsys, command, str(f.n), *options) == (0, want, ""), (f.n, command)


def test_distances_build_no_graph(capsys, monkeypatch):
    # the rows come from the class partition's mask-distance law: no graph, no BFS
    import eigraph

    def no_graph(*args, **kwargs):
        raise AssertionError("distances built a graph or ran a BFS")

    for name, module in list(sys.modules.items()):
        if name == "eigraph" or name.startswith("eigraph."):
            for attr in ("build_essential_graph", "bfs_row", "all_pairs_distances"):
                if getattr(module, attr, None) is getattr(eigraph, attr):
                    monkeypatch.setattr(module, attr, no_graph)
    for n in ("4", "12", "30", "2700", "1321091265351"):
        for fmt in ("text", "json"):
            assert run_cli(capsys, "distances", n, "--format", fmt)[0] == 0, (n, fmt)


@pytest.mark.parametrize("command", ["graph", "aig", "distances"])
def test_errors_write_no_file(capsys, tmp_path, command):
    target = tmp_path / "out.json"
    argv = [command, "2700", "--max-t", "10", "--format", "json", "--output", str(target)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "") and err.startswith("error: ")
    assert not target.exists()


def test_dim_builds_no_distance_matrix(capsys, monkeypatch):
    # no dim method builds the T x T matrix: every one reads the class law
    import eigraph

    def no_matrix(g):
        raise AssertionError("dim built the T x T distance matrix")

    for name, module in list(sys.modules.items()):
        if name == "eigraph" or name.startswith("eigraph."):
            if getattr(module, "all_pairs_distances", None) is eigraph.all_pairs_distances:
                monkeypatch.setattr(module, "all_pairs_distances", no_matrix)
    for n in ("12", "60", "2310", "2700", "1321091265351"):
        for method in ("auto", "constructive", "brute"):
            assert run_cli(capsys, "dim", n, "--method", method)[0] == 0, (n, method)


def test_dim_certificate_builds_no_graph(capsys, monkeypatch):
    # auto and constructive certify on the class partition: no graph, no BFS
    import eigraph

    def no_graph(*args, **kwargs):
        raise AssertionError("the dim certificate built a graph or ran a BFS")

    for name, module in list(sys.modules.items()):
        if name == "eigraph" or name.startswith("eigraph."):
            for attr in ("build_essential_graph", "bfs_row"):
                if getattr(module, attr, None) is getattr(eigraph, attr):
                    monkeypatch.setattr(module, attr, no_graph)
    for n in ("12", "60", "2310", "2700", "1321091265351"):
        for method in ("auto", "constructive"):
            for fmt in ("text", "json"):
                argv = ("dim", n, "--method", method, "--format", fmt)
                assert run_cli(capsys, *argv)[0] == 0, argv


def test_production_commands_reach_no_oracle(capsys, monkeypatch):
    # Every command but verify reads the laws: BFS, the row grouping, the
    # join, the isomorphism checks, the pairwise ideal tests, the BFS witness
    # check and the pairwise mask-distance law are oracles, for verify and
    # the tests only.
    import eigraph.graph
    import eigraph.metricdim
    import eigraph.zagreb

    def no_oracle(*args, **kwargs):
        raise AssertionError("a production command reached an oracle")

    oracles = {
        eigraph.graph: (
            "to_json_dict",
            "bfs_row",
            "all_pairs_distances",
            "distance_similar_partition",
            "build_join_construction",
            "check_divisor_conjugate_iso",
            "check_field_product_iso",
        ),
        eigraph.metricdim: ("is_resolving",),
        eigraph.ideals: (
            "sum_is_essential_or_unit",
            "essential_generators",
            "ideal_sum",
            "gcd_lemma_check",
            "gcd_lemma_holds",
        ),
        # the paper's Zagreb forms by the shape of n are references
        eigraph.zagreb: ("zagreb_prime_power", "zagreb_two_prime"),
    }
    originals = {getattr(home, attr): attr for home, attrs in oracles.items() for attr in attrs}
    for name, module in list(sys.modules.items()):
        if name == "eigraph" or name.startswith("eigraph."):
            for original, attr in originals.items():
                if getattr(module, attr, None) is original:
                    monkeypatch.setattr(module, attr, no_oracle)
    monkeypatch.setattr(ClassPartition, "mask_distance", no_oracle)
    for argv in _production_argvs():
        assert run_cli(capsys, *argv)[0] == 0, argv


def _production_argvs():
    """Every command but verify, in every format and dim method, on n of every shape."""
    formats = {
        "factor": ("text", "json"),
        "graph": ("text", "json", "dot"),
        "aig": ("text", "json", "dot"),
        "classes": ("text", "json"),
        "distances": ("text", "json"),
    }
    for n in ("6", "12", "30", "49", "60", "1024", "2310", "2700", "1321091265351"):
        yield from ((c, n, "--format", fmt) for c, fmts in formats.items() for fmt in fmts)
        yield from (
            ("dim", n, "--method", method, "--format", fmt)
            for method in ("auto", "formula", "constructive", "brute")
            for fmt in ("text", "json")
        )
        for window in ((n,), (n, str(int(n) + 10))):
            yield from (("zagreb", *window, "--format", fmt) for fmt in ("text", "json", "csv"))


def test_production_commands_build_no_ideal(capsys, monkeypatch):
    # Every command, verify and its oracles too, reads the partition's
    # generator, mask and exponent columns; the Ideal view of them is for
    # library callers.
    assert {type(v) for v in enumerate_vertices(factor(2700))} == {Ideal}

    def no_ideal(self, *args):
        raise AssertionError("an Ideal was built")

    monkeypatch.setattr(Ideal, "__init__", no_ideal)
    for argv in _production_argvs():
        assert run_cli(capsys, *argv)[0] == 0, argv
    # both sides of verify.SIEVE_LIMIT, every category
    for window in (("4", "100"), ("2300", "2400"), ("1321091265351", "1321091265351")):
        assert run_cli(capsys, "verify", *window)[0] == 0, window
    # the patch bites: the library lister still builds Ideals
    with pytest.raises(AssertionError, match="an Ideal was built"):
        enumerate_vertices(factor(12))


def test_graph_and_aig_build_through_the_module_names(capsys, monkeypatch):
    # An outside-in tracer such as perfbench/bench_trace.py patches module
    # attributes, so each command must look its builder up when it runs.
    built = []

    def counting(fn):
        def wrapper(*args, **kwargs):
            built.append(fn.__name__)
            return fn(*args, **kwargs)

        return wrapper

    for name in ("build_aig", "build_essential_graph"):
        monkeypatch.setattr(cli, name, counting(getattr(cli, name)))
    for command, builder in (("aig", "build_aig"), ("graph", "build_essential_graph")):
        built.clear()
        assert run_cli(capsys, command, "12")[0] == 0
        assert built == [builder], command


def test_zagreb_command(capsys):
    code, out, _ = run_cli(capsys, "zagreb", "2700", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, ZAGREB_JSON_SCHEMA)
    assert payload["M1_definition"] == 22862
    assert payload["M2_definition"] == 300666
    assert payload["M1_agrees"] and payload["M2_agrees"]

    code, out, _ = run_cli(capsys, "zagreb", "30")
    assert "M2_paper_convention = 63" in out
    assert "paper_convention_differs = True" in out

    code, out, _ = run_cli(capsys, "zagreb", "32", "--format", "json")
    payload = json.loads(out)
    assert (payload["M1_closed"], payload["M2_closed"]) == (36, 54)


def _refuse_factor_range(monkeypatch):
    """Make every alias of factor_range raise, so a run that passes factored no [2, END]."""

    def no_range(limit):
        raise AssertionError(f"factored every n in [2, {limit}]")

    for module in (eigraph, eigraph.arithmetic, eigraph.verify):
        monkeypatch.setattr(module, "factor_range", no_range)


def test_zagreb_csv_sweep(capsys, monkeypatch):
    _refuse_factor_range(monkeypatch)
    code, out, _ = run_cli(capsys, "zagreb", "4", "40", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,k,T,M1_def,M2_def,M1_closed,M2_closed,M2_paper_convention,flags"
    assert lines[1].startswith("4,1,1,0,0,0,0,")
    by_n = {int(line.split(",")[0]): line for line in lines[1:]}
    assert by_n[30].split(",")[3:8] == ["30", "36", "30", "36", "63"]
    # The bytes printed when each CSV cell and flag was written out by hand,
    # and (3000000..3000010) when the sweep read a table built up to END.
    for start, end, digest in (
        ("4", "3000", "702580cec2e31741979ec8d7089abe6e0381d0818dd7a17ef35f038473eef70c"),
        ("3000000", "3000010", "f08ab95ce209cda567ddbaaa46486bae33fde4400f111b5895b2f504b9a6493e"),
    ):
        code, out, _ = run_cli(capsys, "zagreb", start, end, "--format", "csv")
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest), start


def test_zagreb_sweep_factors_only_its_window(capsys, monkeypatch):
    original = eigraph.arithmetic.factor
    factored = []

    def counting(n):
        factored.append(n)
        return original(n)

    monkeypatch.setattr("eigraph.arithmetic.factor", counting)
    code, out, _ = run_cli(capsys, "zagreb", "200000", "200049", "--format", "csv")
    assert code == 0
    assert factored == list(range(200000, 200050))
    # The bytes printed when the sweep factored every n in [2, 200049].
    digest = "4dd5366d69cb9754b57207410b2481f200a05737cbac56259dac33fd63c8ca2d"
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    composite = [f for f in map(factor, range(200000, 200050)) if not f.is_prime()]
    assert out.splitlines()[1:] == [
        compute_zagreb_report(build_essential_graph(f)).csv_row() for f in composite
    ]


def _no_factor(n):
    raise AssertionError(f"factored {n}")


def test_zagreb_sweep_rejects_an_end_at_2_63_before_factoring(capsys, monkeypatch):
    top = str(2**63)
    single = run_cli(capsys, "zagreb", top)
    assert single == (1, "", f"error: n must satisfy 2 <= n < 2**63, got {top}\n")
    # A sweep must refuse END before factoring any n of [N, END].
    monkeypatch.setattr("eigraph.arithmetic.factor", _no_factor)
    for start in (str(2**63 - 8), "4", "1"):
        for fmt in ("text", "csv", "json"):
            assert run_cli(capsys, "zagreb", start, top, "--format", fmt) == single


def test_zagreb_sweep_with_no_composite_exits_1(capsys):
    for start, end in (("2", "3"), ("0", "3"), ("7", "7")):
        error = f"error: no composite n in [{start}, {end}]\n"
        if start == end:
            error = f"error: n must be composite and at least 4, got {start}\n"
        for fmt in ("text", "json", "csv"):
            assert run_cli(capsys, "zagreb", start, end, "--format", fmt) == (1, "", error)
    # verify states the same error
    assert run_cli(capsys, "verify", "2", "3") == (1, "", "error: no composite n in [2, 3]\n")


def test_zagreb_exits_2_when_a_closed_form_disagrees(capsys, monkeypatch):
    import eigraph.zagreb

    original = eigraph.zagreb.zagreb_general_closed

    def off_by_one(partition):
        m1, m2 = original(partition)
        return m1 + 1, m2

    monkeypatch.setattr(eigraph.zagreb, "zagreb_general_closed", off_by_one)
    code, out, err = run_cli(capsys, "zagreb", "2700")
    assert (code, err) == (2, "")
    assert "M1_closed = 22863" in out and "M1_agrees = False" in out
    assert "M2_agrees = True" in out
    code, out, err = run_cli(capsys, "zagreb", "4", "40", "--format", "csv")
    assert (code, err) == (2, "")
    composite = [f for f in map(factor, range(4, 41)) if not f.is_prime()]
    assert out.splitlines()[1:] == [
        compute_zagreb_report(build_essential_graph(f)).csv_row() for f in composite
    ]
    flags = {int(line.split(",")[0]): line.split(",")[-1] for line in out.splitlines()[1:]}
    assert flags[12].startswith("m1_agree=false;m2_agree=true")
    # One law for every composite n: prime powers and squarefree n read it too.
    assert all(flag.startswith("m1_agree=false;m2_agree=true") for flag in flags.values())
    assert run_cli(capsys, "zagreb", "30", "32", "--format", "json")[0] == 2


def test_verify_bounds_factors_n_once(monkeypatch):
    original = eigraph.arithmetic.factor
    calls = []

    def counting(n):
        calls.append(n)
        return original(n)

    for name, module in list(sys.modules.items()):
        if name == "eigraph" or name.startswith("eigraph."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    # k = 10: 521,731 divisor pairs, each of which factored n before.
    summary = run_verify(6469693230, 6469693230, checks=("bounds",))
    assert summary.passed and summary.categories == {"bounds": (1, 1)}
    assert calls == [6469693230]


def test_verify_command(capsys):
    code, out, _ = run_cli(capsys, "verify", "4", "120", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, VERIFY_JSON_SCHEMA)
    assert payload["passed"] is True
    assert payload["failures"] == []
    assert set(payload["categories"]) == {
        "adjacency",
        "distances",
        "partition",
        "join",
        "dim",
        "zagreb",
        "iso",
        "bounds",
    }


def test_verify_checks_the_printed_distance_rows(monkeypatch):
    # non-squarefree n, where no mask-law result stands in: the rows that
    # `distances` prints are compared with BFS in the first result
    original = ClassPartition.distance_rows

    def one_digit_off(self):
        rows = list(original(self))
        rows[1] = ("1" if rows[1][0] != "1" else "2") + rows[1][1:]
        return iter(rows)

    for n in (12, 360):
        want = run_verify(n, n, ("distances",))
        assert want.passed
        monkeypatch.setattr(ClassPartition, "distance_rows", one_digit_off)
        summary = run_verify(n, n, ("distances",))
        monkeypatch.undo()
        run, passed = want.categories["distances"]
        assert summary.categories == {"distances": (run, passed - 1)}, n
        detail = "distance matrix symmetric with entries in 1..3"
        assert summary.failures == [{"n": n, "category": "distances", "detail": detail}]


def _one_cell_off(dist):  # asymmetric, with every entry still in 1..3 off the diagonal
    dist[0][1] = dist[0][1] % 3 + 1
    return dist


def _one_pair_at_4(dist):  # symmetric, with one entry past 3
    dist[0][1] = dist[1][0] = 4
    return dist


@pytest.mark.parametrize("edit", [_one_cell_off, _one_pair_at_4])
def test_verify_distances_finds_an_asymmetric_cell_or_an_entry_past_3(monkeypatch, edit):
    monkeypatch.setattr(eigraph.verify, "all_pairs_distances", lambda g: edit(all_pairs_distances(g)))
    detail = "distance matrix symmetric with entries in 1..3"
    for n in (12, 360, 30):
        failures = run_verify(n, n, ("distances",)).failures
        assert {"n": n, "category": "distances", "detail": detail} in failures, n


def test_verify_mask_distance_off_by_one_fails_only_its_law(monkeypatch):
    law = ClassPartition.mask_distance
    monkeypatch.setattr(ClassPartition, "mask_distance", lambda self, a, b: law(self, a, b) + 1)
    for n in (30, 2310):
        detail = "squarefree mask-distance law vs BFS"
        want = [{"n": n, "category": "distances", "detail": detail}]
        assert run_verify(n, n).failures == want, n


# cells (i, j) of the adjacency rows flipped: an edge flips both of its
# cells; a self-loop and a one-sided entry below the diagonal, which a walk
# over the pairs i < j never reads, flip one
WRONG_ENTRIES = {
    "edge-0-1": ((0, 1), (1, 0)),
    "edge-0-2": ((0, 2), (2, 0)),
    "edge-1-3": ((1, 3), (3, 1)),
    "self-loop-1": ((1, 1),),
    "one-sided-3-1": ((3, 1),),
}
ADJACENCY_DETAILS = {
    "build_essential_graph": "essential adjacency vs ideal-sum oracle",
    "build_aig": "annihilating adjacency vs integer divisibility",
}


@pytest.mark.parametrize("cells", WRONG_ENTRIES.values(), ids=WRONG_ENTRIES)
@pytest.mark.parametrize("builder", ADJACENCY_DETAILS)
def test_verify_adjacency_finds_one_wrong_entry(monkeypatch, builder, cells):
    build = getattr(eigraph.verify, builder)

    def wrong(f, max_t=None):
        g = build(f, max_t)
        rows = list(g.adjacency)
        for i, j in cells:
            rows[i] ^= 1 << j
        return IdealGraph(g.kind, g.classes, tuple(rows), tuple(map(int.bit_count, rows)))

    monkeypatch.setattr(eigraph.verify, builder, wrong)
    detail = ADJACENCY_DETAILS[builder]
    (other,) = set(ADJACENCY_DETAILS.values()) - {detail}  # the other graph's oracle passes
    for n in (12, 30, 72, 210, 2700):
        details = {f["detail"] for f in run_verify(n, n, checks=("adjacency",)).failures}
        assert detail in details and other not in details, n


def test_verify_iso_category(capsys):
    code, out, _ = run_cli(capsys, "verify", "4", "100", "--checks", "iso")
    assert code == 0
    assert "result = PASS" in out


def test_verify_iso_checks_the_field_product_model_past_k10():
    # k = 11 (T = 2046) and k = 12 (T = 4094): the row comparison builds no
    # model, so squarefree n of every k gets the embedding result
    for n in (200560490130, 7420738134810):
        summary = run_verify(n, n, checks=("iso",))
        assert summary.categories == {"iso": (2, 2)}, n


def test_dim_budget_counts_choices_of_blocks(capsys):
    # n = 3000000 (T = 96, 7 blocks): the lower bound 89 drops a vertex from
    # every block, one choice of blocks; counting the dropped member of each
    # block as well would exceed 1000
    code, out, _ = run_cli(
        capsys, "dim", "3000000", "--method", "brute", "--budget", "1000", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, DIM_JSON_SCHEMA)
    assert payload["exact"] is True
    assert payload["dim"] == 89
    assert len(payload["witness"]) == 89


def test_verify_dim_budget_skip(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "30030", "30030", "--checks", "dim", "--budget", "1000"
    )
    assert code == 0
    assert "result = PASS" in out


def test_verify_single_large_n(capsys):
    # T = 358; a sieve over [2, n] would not fit in memory
    n = "1321091265351"
    code, out, _ = run_cli(capsys, "verify", n, n)
    assert code == 0
    assert out.rstrip().endswith("result = PASS")


def test_verify_above_the_sieve_limit_factors_each_n(capsys, monkeypatch):
    def no_sieve(*args, **kwargs):
        raise AssertionError("sieved a range ending above the limit")

    monkeypatch.setattr("eigraph.verify.factor_range", no_sieve)
    # The bytes printed when each range was sieved over [2, END].
    for argv, digest in (
        (("3000000", "3000010"), "fab0b9ede597a8e5ff771b5dfca40a2fec10a690018c16033cc9d6c31d78c4ec"),
        (("999990", "1000010"), "782d4cb5574642c0ac317200df6b2170191119512fb1f3067333ce4301b6e650"),
        (("2310", "2310", "--format", "json"), "c8536bee819ef211b3c5075e36ca98f376a1fb26647a7de6477c42bff7f91722"),
        (("1680", "1680"), "4cb1a5d5b07e6b0c93089f8caa06d922d22b009a09f3a1a43e3f73765124f422"),
    ):
        code, out, _ = run_cli(capsys, "verify", *argv)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest), argv


def test_verify_sweep_factors_only_its_window(capsys, monkeypatch):
    original = eigraph.arithmetic.factor
    factored = []

    def counting(n):
        factored.append(n)
        return original(n)

    monkeypatch.setattr("eigraph.arithmetic.factor", counting)
    checks = "adjacency,distances,partition,join,zagreb,iso,bounds"
    code, out, _ = run_cli(capsys, "verify", "200000", "200049", "--checks", checks)
    assert code == 0
    assert factored == list(range(200000, 200050))
    # The bytes printed when the sweep factored every n in [2, 200049].
    digest = "ba6e04fc7638266777b0d77a1ecb27ba14eb876c84127cf80f50a2a96f3948e4"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("start, end", [(4, 128), (100, 160), (127, 129), (2300, 2400)])
def test_verify_prints_the_same_on_both_sides_of_the_sieve_limit(capsys, monkeypatch, start, end):
    original = eigraph.verify.factor_range
    sieved = []

    def counting(limit):
        sieved.append(limit)
        return original(limit)

    monkeypatch.setattr("eigraph.verify.factor_range", counting)
    outputs = {}
    for limit, path in ((10**7, [end]), (0, [])):
        monkeypatch.setattr("eigraph.verify.SIEVE_LIMIT", limit)
        sieved.clear()
        outputs[limit] = [
            run_cli(capsys, "verify", str(start), str(end), "--format", fmt)
            for fmt in ("text", "json")
        ]
        assert sieved == path * 2, (limit, sieved)
    assert outputs[10**7] == outputs[0]
    assert [code for code, _, _ in outputs[0]] == [0, 0]


def test_verify_rejects_an_end_at_2_63_before_factoring(capsys, monkeypatch):
    monkeypatch.setattr("eigraph.arithmetic.factor", _no_factor)
    top = str(2**63)
    for start in (str(2**63 - 8), "4"):
        code, out, err = run_cli(capsys, "verify", start, top, "--checks", "bounds")
        assert (code, out, err) == (1, "", f"error: n must satisfy 2 <= n < 2**63, got {top}\n")


@pytest.mark.parametrize(
    "argv",
    [["graph"], ["aig"], ["classes"], ["distances"], ["zagreb"]]
    + [["dim", "--method", m] for m in ("auto", "formula", "brute", "constructive")],
)
def test_non_composite_n_is_refused(capsys, argv):
    for n, message in (
        ("7", "n must be composite and at least 4, got 7"),
        ("1", "n must satisfy 2 <= n < 2**63, got 1"),
    ):
        code, out, err = run_cli(capsys, argv[0], n, *argv[1:])
        assert (code, out, err) == (1, "", f"error: {message}\n"), (argv, n)


def test_composite_rule_is_stated_once():
    import pathlib

    import eigraph

    text = "".join(
        path.read_text() for path in sorted(pathlib.Path(eigraph.__file__).parent.glob("*.py"))
    )
    assert text.count("n must be composite and at least 4") == 1


def test_range_rule_is_stated_once():
    import pathlib

    import eigraph

    text = "".join(
        path.read_text() for path in sorted(pathlib.Path(eigraph.__file__).parent.glob("*.py"))
    )
    assert text.count("n must satisfy 2 <= n < 2**63") == 1


def test_library_has_no_assert_statement():
    # python -O strips assert, so a consistency check raises InconsistencyError instead
    import ast
    import pathlib

    for path in sorted(pathlib.Path(eigraph.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name}: assert at lines {lines}"


def test_verify_unknown_check(capsys):
    assert run_cli(capsys, "verify", "4", "10", "--checks", "nope")[0] == 1


def test_verify_rejects_empty_or_repeated_checks(capsys):
    for checks in ("", " , ", "dim,dim", "dim, join ,dim"):
        code, out, err = run_cli(capsys, "verify", "4", "30", "--checks", checks)
        assert (code, out) == (1, ""), checks
        assert "error" in err, checks
    for checks in ((), ("dim", "dim"), ["join", "zagreb", "join"]):
        with pytest.raises(InputError):
            run_verify(4, 30, checks=checks)


def test_verify_rejects_a_range_with_no_composite(capsys):
    # 127 is a prime at or below verify.SIEVE_LIMIT (128), so it is read from
    # factor_range(127); 131 and 1000003 are primes above it, read from the window.
    for start, end in ((2, 3), (7, 7), (-5, -1), (127, 127), (131, 131), (1000003, 1000003)):
        code, out, err = run_cli(capsys, "verify", str(start), str(end))
        assert (code, out) == (1, ""), (start, end)
        assert "no composite n" in err, (start, end)
        with pytest.raises(InputError):
            run_verify(start, end)
    # A composite n with nothing to check still passes.
    code, out, _ = run_cli(capsys, "verify", "4", "4", "--checks", "bounds")
    assert code == 0
    assert out.splitlines()[1:] == ["bounds: run=0 passed=0 failed=0", "result = PASS"]


def _calls_during_verify(monkeypatch, original, n_of) -> list[int]:
    """The n of each call to `original`, under any eigraph alias, in run_verify(4, 100)."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(n_of(args[0]))
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "eigraph" or name.startswith("eigraph."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    assert run_verify(4, 100).passed
    return calls


def test_verify_builds_one_distance_similar_partition_per_n(monkeypatch):
    import eigraph.graph

    original = eigraph.graph.distance_similar_partition
    calls = _calls_during_verify(monkeypatch, original, lambda g: g.factored.n)
    composite = [n for n in range(4, 101) if not factor(n).is_prime()]
    assert len(composite) == 74
    # a prime square has one vertex, and no check reads its partition
    assert calls == [n for n in composite if n not in (4, 9, 25, 49)]


def test_verify_reaches_no_paper_zagreb_shape_form(monkeypatch):
    import eigraph.zagreb

    def no_reference(*args, **kwargs):
        raise AssertionError("verify reached a paper shape form")

    for attr in ("zagreb_prime_power", "zagreb_two_prime"):
        monkeypatch.setattr(eigraph.zagreb, attr, no_reference)
    # 1000 = 2^3 * 5^3, 1001 = 7 * 11 * 13 and 1024 = 2^10
    assert run_verify(1000, 1030, checks=("zagreb",)).passed


def _patch_every_alias(monkeypatch, module, name, replacement):
    """Set name to replacement in every eigraph module that holds module.name; return those."""
    original = getattr(module, name)
    holders = [
        held
        for key, held in list(sys.modules.items())
        if key.split(".")[0] == "eigraph" and getattr(held, name, None) is original
    ]
    for held in holders:
        monkeypatch.setattr(held, name, replacement)
    return holders


def test_verify_computes_the_dim_formula_once_per_n(monkeypatch):
    import eigraph.metricdim

    original = eigraph.metricdim.dim_formula
    calls = []

    def counting(f):
        calls.append(f.n)
        return original(f)

    # every alias, the certificate's module included: the certificate reads
    # the dim law off its partition and makes no call of its own (it made
    # 35 here, one per n it certified)
    aliases = _patch_every_alias(monkeypatch, eigraph.metricdim, "dim_formula", counting)
    assert eigraph.metricdim in aliases and eigraph.verify in aliases
    assert run_verify(4, 100).passed
    # dim and bounds share one per n
    assert len(calls) == len(set(calls)) == 74


def test_verify_dim_runs_bfs_only_outside_its_witnesses(monkeypatch):
    import eigraph.graph
    import eigraph.verify

    original = eigraph.graph.bfs_row
    calls = []

    def counting(g, s):
        calls.append(s)
        return original(g, s)

    assert eigraph.verify in _patch_every_alias(monkeypatch, eigraph.graph, "bfs_row", counting)
    n = 1321091265351  # T = 358
    dim_only = run_verify(n, n, checks=("dim",))
    # one BFS per vertex outside the certificate's or the search's witness,
    # each run once: 63 rows, where the whole matrix took 358
    assert dim_only.passed and len(calls) == len(set(calls)) == 63
    # with the distances category, in either order, the oracle reads its
    # matrix and no row runs twice
    for checks in (CHECK_CATEGORIES, ("dim", *CHECK_CATEGORIES[:4], *CHECK_CATEGORIES[5:])):
        calls.clear()
        summary = run_verify(n, n, checks=checks)
        assert summary.passed and sorted(calls) == list(range(358)), checks
        assert summary.categories["dim"] == dim_only.categories["dim"]


def test_scalar_commands_list_no_class_partition(capsys, monkeypatch):
    # graph and aig in text and zagreb in every format read the class
    # quotient: with the grouping by class refusing, each prints the bytes
    # it printed when it partitioned the vertex list (SHA-256 of stdout)
    def refuse(part):
        raise AssertionError("grouped the vertices by class")

    monkeypatch.setattr(ClassPartition, "members", property(refuse))
    for argv, digest in (
        ("graph 2700", "2684b57bcd7513d2f6656746f7ed22de4305d039509a6171e3d1d9bdcdcd360f"),
        ("aig 2700", "d7605adf4aa25c16e05568203d286fdab00f01876091f8e2c632f2b6b7e1910a"),
        ("graph 30", "61abdbc6f3c93ddf15be339be9078991866e6b52ca0a1b27658924fc9b8ca867"),
        (
            "graph 203903066266900",
            "dc3a566774d102dd3f29c592eb419a83120b502139e6225e1e84b416fbd3c361",
        ),
        ("aig 203903066266900", "2b247b15290d8f30a744329f2d9521574c4451f29513b1648c091366e63d3ea6"),
        ("zagreb 2700", "ebae2e10ed6b3d92d931a643eef300324b03d38126f8d71e2dd9dd26a5b2a80d"),
        (
            "zagreb 2700 --format json",
            "269dd186c4a4738de87da130e1874010be8048f8b80ebadc9b9012bc8943cb29",
        ),
        (
            "zagreb 2700 --format csv",
            "e0cb0ccf4ba8735fa73496825ac018448f63cf2172a64b2e90ee33c079d4c90f",
        ),
        ("zagreb 4 500", "40463eb23d182da2458e13063ec3882767f29e577974029c803c1d1905afbe54"),
        (
            "zagreb 4 500 --format json",
            "7071a390b48ef63d2656c5b8988b0b43ebd4620b911b007bfc60390e31a68feb",
        ),
        (
            "zagreb 4 500 --format csv",
            "263cfd1d3814a67e4a2888994701470614b4e006fb5019b53fc7f89cd15f17fe",
        ),
        (
            "zagreb 1321091265351 --format json",
            "9ad15edff8b248009cc8e46e1e98f9d43f2f4ff5db06a1e235ae686bbcbfae52",
        ),
    ):
        code, out, err = run_cli(capsys, *argv.split())
        assert (code, err, hashlib.sha256(out.encode()).hexdigest()) == (0, "", digest), argv


def test_run_verify_refuses_a_non_int_range_or_a_bad_budget():
    # a float start would reach the JSON summary, against its schema
    for start, end in ((60.0, 60), (60, 60.0), (True, 60)):
        with pytest.raises(InputError, match="must be an integer"):
            run_verify(start, end)
    # a negative budget would drop the search's result unseen: dim run=4, not 5
    for budget in (-1, 1.5, None, True):
        with pytest.raises(InputError, match="budget must be a nonnegative integer"):
            run_verify(60, 60, checks=("dim",), budget=budget)
    assert run_verify(60, 60, checks=("dim",), budget=0).categories["dim"][0] == 4
    assert run_verify(60, 60, checks=("dim",)).categories["dim"][0] == 5


def test_cli_refuses_a_negative_budget_in_its_parser(capsys):
    for command in (("dim", "60", "--method", "brute"), ("verify", "60", "60")):
        code, _, err = run_cli(capsys, *command, "--budget", "-1")
        assert (code, err) == (1, "error: argument --budget: budget must be nonnegative, got -1\n")


def test_verify_keeps_one_class_partition_per_graph(monkeypatch):
    calls = _calls_during_verify(monkeypatch, eigraph.ideals.class_partition, lambda f: f.n)
    # One per graph, the essential graph's and, unless T = 1, the AIG's:
    # verify, zagreb, the certificate and the join reference share the
    # essential graph's.
    assert len(calls) == 144


def test_verify_lists_the_vertices_once_per_graph(monkeypatch):
    calls = []
    listing = ClassPartition.columns.func

    def counting(part):
        calls.append(part.modulus.n)
        return listing(part)

    counted = cached_property(counting)
    counted.__set_name__(ClassPartition, "columns")
    monkeypatch.setattr(ClassPartition, "columns", counted)
    assert run_verify(4, 100).passed
    # Per n: the essential graph and, unless T = 1, the AIG; 253 while the
    # certificate listed them again, 218 while the join reference did.
    assert len(calls) == 144


def test_each_n_builds_one_class_quotient_per_listing(capsys, monkeypatch):
    calls = []
    check = ClassQuotient.__post_init__

    def counting(q):
        calls.append(q.modulus.n)
        check(q)

    monkeypatch.setattr(ClassQuotient, "__post_init__", counting)
    assert run_verify(4, 100).passed
    # the two graphs' partitions (144) and dim_formula's quotient (74); 366
    # while the listing, the graph's classes and the Zagreb report each
    # built their own
    assert len(calls) == 218
    for argv in (
        "graph 2700",
        "aig 2700",
        "classes 2700",
        "distances 2700",
        "zagreb 2700",
        "dim 2700",
        "dim 2700 --method constructive",
        "dim 2700 --method brute",
        "dim 2700 --method formula",
    ):
        calls.clear()
        assert run_cli(capsys, *argv.split())[0] == 0, argv
        assert calls == [2700], argv


def test_inconsistency_exit_2(capsys, monkeypatch):
    from eigraph import InconsistencyError

    def boom(*args, **kwargs):
        raise InconsistencyError("forced certification failure")

    monkeypatch.setattr(cli, "constructive_resolving_set", boom)
    code, _, err = run_cli(capsys, "dim", "2700")
    assert code == 2
    assert "inconsistency" in err


def test_run_verify_summary_structure():
    summary = run_verify(4, 30, checks=("join", "zagreb"))
    assert summary.passed
    assert set(summary.categories) == {"join", "zagreb"}
    run, passed = summary.categories["join"]
    assert run == passed > 0


def test_output_deterministic(capsys):
    first = run_cli(capsys, "dim", "2700", "--format", "json")
    second = run_cli(capsys, "dim", "2700", "--format", "json")
    assert first == second
    first = run_cli(capsys, "verify", "4", "60", "--format", "json")
    second = run_cli(capsys, "verify", "4", "60", "--format", "json")
    assert first == second


def test_console_script_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "eigraph.cli", "factor", "60"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "factors = 2^2 * 3 * 5" in proc.stdout


def test_version_flag():
    proc = subprocess.run(
        [sys.executable, "-m", "eigraph.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("eigraph ")


def test_json_writer_on_real_payloads(capsys):
    # each streamed JSON output is the bytes of json.dumps(indent=2) on its reference payload
    for n in (12, 360, 2310, 1321091265351, 203903066266900):
        f = factor(n)
        ess = build_essential_graph(f)
        distances = {
            "n": n,
            "kind": ess.kind,
            "vertices": [v.d for v in ess.vertices],
            "distances": all_pairs_distances(ess),
        }
        for command, payload in (
            ("graph", to_json_dict(ess)),
            ("aig", to_json_dict(build_aig(f))),
            ("distances", distances),
            ("dim", constructive_resolving_set(ess.classes).to_json_dict()),
        ):
            out = run_cli(capsys, command, str(n), "--format", "json")[1]
            assert out == json.dumps(payload, indent=2) + "\n", (n, command)


def test_dim_json_equals_json_dumps_of_the_report(capsys, factored_100k):
    # the streamed dim writer against DimReport.to_json_dict, the reference:
    # the writer itself, before the report's representations are decoded,
    # for every composite n <= 3000, where the parser would cost more than
    # it does, and for both LARGE_T n, where the representations are long;
    # main for the rest
    for f in [*composites(factored_100k, 4, 3000), *map(factor, LARGE_T)]:
        for report in (constructive_resolving_set(class_partition(f)), dim_formula(f)):
            got = "".join(cli._dim_json(report))
            assert got == json.dumps(report.to_json_dict(), indent=2) + "\n", (f.n, report.method)
    cases = [(n, "brute", dim_bruteforce(build_essential_graph(factor(n)))) for n in (1680, 30030)]
    cases += [(n, "auto", constructive_resolving_set(class_partition(factor(n)))) for n in LARGE_T]
    for n, method, report in cases:
        want = json.dumps(report.to_json_dict(), indent=2) + "\n"
        got = run_cli(capsys, "dim", str(n), "--method", method, "--format", "json")
        assert got == (0, want, ""), (n, method)


def test_k6_search_output_pinned(capsys):
    # squarefree k = 6 at the default budget: every size up to 5 is searched
    # and fails, and size 6 would exceed the budget, so the search reports
    # the bound 6 without a witness, as the unpruned block-choice scan did
    text = "n = 30030\nT = 62\ndim = 6\nexact = false\nmethod = brute-force\nlower_bound = 1\n"
    payload = {
        "n": 30030,
        "T": 62,
        "dim": 6,
        "exact": False,
        "method": "brute-force",
        "lower_bound": 1,
        "witness": None,
        "representations": None,
    }
    assert run_cli(capsys, "dim", "30030", "--method", "brute") == (0, text, "")
    code, out, _ = run_cli(capsys, "dim", "30030", "--method", "brute", "--format", "json")
    assert code == 0 and out == json.dumps(payload, indent=2) + "\n"
    counts = dict(
        adjacency=4, distances=4, partition=1, join=1, dim=2, zagreb=4, iso=2, bounds=1
    )
    lines = ["verify 30030..30030 checks=" + ",".join(counts)]
    lines += [f"{name}: run={run} passed={run} failed=0" for name, run in counts.items()]
    lines.append("result = PASS\n")
    assert run_cli(capsys, "verify", "30030", "30030") == (0, "\n".join(lines), "")
