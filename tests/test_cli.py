import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from rainbowmatch import cli, menger, switching
from rainbowmatch.budget import SearchBudget
from rainbowmatch.cli import run
from rainbowmatch.core import read_edge_list, write_edge_list
from rainbowmatch.errors import InfeasibleParameters
from rainbowmatch.gen import generate_instance, generate_proper_digraph, random_latin_square
from rainbowmatch.oracle import exact_max_rainbow_matching
from rainbowmatch.rng import SplitMix64

from helpers import latin_text


def _capture(capsys, argv):
    code = run(argv)
    return code, capsys.readouterr().out


def test_generator_deterministic():
    a = generate_instance("random", 4, 5, True, seed=99, left_size=6, right_size=6)
    b = generate_instance("random", 4, 5, True, seed=99, left_size=6, right_size=6)
    assert a == b
    c = generate_instance("random", 4, 5, True, seed=100, left_size=6, right_size=6)
    assert a != c


def test_generator_infeasible():
    with pytest.raises(InfeasibleParameters):
        generate_instance("random", 2, 5, False, seed=0, left_size=3, right_size=3)


def test_generator_latin_kind_valid():
    g = generate_instance("latin", 3, seed=1)
    assert g.colour_count == 3
    assert len(g.edges) == 9
    rect = random_latin_square(3, seed=1)
    for row in range(3):
        assert sorted(rect.grid[row]) == [0, 1, 2]
    for col in range(3):
        assert sorted(rect.grid[r][col] for r in range(3)) == [0, 1, 2]


def test_proper_digraph_generator_deterministic():
    a = generate_proper_digraph(20, 4, seed=5)
    b = generate_proper_digraph(20, 4, seed=5)
    assert a.arcs == b.arcs


def test_negative_sample_sizes_are_rejected():
    rng = SplitMix64(7)
    with pytest.raises(ValueError, match="negative"):
        rng.sample_ids(4, -1)
    # draws for valid sizes are pinned
    assert rng.sample_ids(10, 4) == [7, 0, 4, 6]
    assert rng.sample_ids(5, 0) == []
    assert rng.sample_ids(5, 5) == [4, 2, 3, 1, 0]
    with pytest.raises(InfeasibleParameters, match="-1"):
        generate_proper_digraph(5, -1)


def test_solve_greedy_guarantee_regime(tmp_path, capsys):
    edges = [(x, x, 0) for x in range(4)] + [(x, (x + 1) % 4, 1) for x in range(4)]
    from rainbowmatch.core import ColouredBipartiteMultigraph

    g = ColouredBipartiteMultigraph(4, 4, 2, edges)
    f = tmp_path / "inst.txt"
    f.write_text(write_edge_list(g))
    code, out = _capture(capsys, ["solve", "--algorithm", "greedy", str(f)])
    assert code == 0
    payload = json.loads(out)
    assert payload["size"] == 2
    assert payload["verified"] is True


def test_transversal_2x2_reports_shortfall(tmp_path, capsys):
    f = tmp_path / "sq.txt"
    f.write_text("1 2\n2 1\n")
    code, out = _capture(capsys, ["transversal", str(f)])
    assert code == 1
    assert json.loads(out)["size"] == 1


def test_transversal_cyclic3_full(tmp_path, capsys):
    f = tmp_path / "sq.txt"
    f.write_text(latin_text(random_latin_square(3, seed=4)))
    code, out = _capture(capsys, ["transversal", str(f)])
    assert code == 0
    assert json.loads(out)["size"] == 3


def test_malformed_grid_exit_2(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("1 2\n2 2\n")
    code, _ = _capture(capsys, ["transversal", str(f)])
    assert code == 2


def test_solve_json_byte_identical(tmp_path, capsys):
    g = generate_instance("random", 3, 4, True, seed=8, left_size=5, right_size=5)
    f = tmp_path / "inst.txt"
    f.write_text(write_edge_list(g))
    _, out1 = _capture(capsys, ["solve", "--algorithm", "switching", str(f)])
    _, out2 = _capture(capsys, ["solve", "--algorithm", "switching", str(f)])
    assert out1 == out2


def test_solver_outputs_reverified(tmp_path, capsys):
    g = generate_instance("random", 4, 5, True, seed=2, left_size=6, right_size=6)
    f = tmp_path / "inst.txt"
    f.write_text(write_edge_list(g))
    for algo in ("greedy", "switching", "golden", "oracle"):
        code, out = _capture(capsys, ["solve", "--algorithm", algo, str(f)])
        assert json.loads(out)["verified"] is True


def test_solve_traces(tmp_path, capsys):
    g = generate_instance("random", 4, 5, True, seed=2, left_size=6, right_size=6)
    f = tmp_path / "inst.txt"
    f.write_text(write_edge_list(g))
    code, out = _capture(
        capsys, ["solve", "--algorithm", "switching", "--trace", str(f)]
    )
    assert "trace" in json.loads(out)
    code, out = _capture(capsys, ["solve", "--algorithm", "golden", "--trace", str(f)])
    payload = json.loads(out)
    assert payload["trace"]["levels"][0]["method"] in ("engine", "oracle")


def test_solve_oracle_budget_flagged(tmp_path, capsys):
    g = generate_instance("random", 6, 6, False, seed=5, left_size=8, right_size=8)
    f = tmp_path / "inst.txt"
    f.write_text(write_edge_list(g))
    code, out = _capture(
        capsys,
        ["solve", "--algorithm", "oracle", "--node-limit", "3", str(f)],
    )
    assert code == 3
    assert json.loads(out)["optimal"] is False


def test_verify_subcommand(tmp_path, capsys):
    g = generate_instance("random", 3, 4, True, seed=8, left_size=5, right_size=5)
    gf = tmp_path / "g.txt"
    gf.write_text(write_edge_list(g))
    from rainbowmatch.core import greedy_rainbow_matching

    m = greedy_rainbow_matching(g)
    mf = tmp_path / "m.txt"
    mf.write_text("".join(f"{e.x} {e.y} {e.c}\n" for e in m))
    code, out = _capture(capsys, ["verify", str(gf), str(mf)])
    assert code == 0
    assert json.loads(out)["valid"] is True
    bad = tmp_path / "bad.txt"
    bad.write_text("0 0 0\n0 1 1\n")
    code, out = _capture(capsys, ["verify", str(gf), str(bad)])
    assert code in (1, 2)


def test_verify_names_a_malformed_matching_line(tmp_path, capsys):
    gf = tmp_path / "g.txt"
    gf.write_text("2 2 1\n0 0 0\n1 1 0\n")
    mf = tmp_path / "m.txt"
    for line in ("0 0", "0 0 zero"):
        mf.write_text(f"# one edge\n{line}\n")
        assert run(["verify", str(gf), str(mf)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: matching line must be 'x y c', got {line!r}\n"


def test_switching_rotation_limit_exits_3(tmp_path, capsys, monkeypatch):
    # the order-6 cyclic square has no transversal: the rotation search runs
    # dry at 5 (exit 1), or first stops at a small rotation limit (exit 3)
    g = tmp_path / "latin6.txt"
    g.write_text(write_edge_list(generate_instance("latin", 6, seed=6)))
    argv = ["solve", "--algorithm", "switching", str(g)]
    assert run(argv) == 1
    assert capsys.readouterr().err == ""
    monkeypatch.setattr(switching, "ROTATION_LIMIT", 2)
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert json.loads(captured.out)["size"] == 5
    assert captured.err.startswith("budget exhausted:")


@pytest.mark.parametrize("command", [["oracle-max"], ["solve", "--algorithm", "oracle"]])
def test_oracle_budget_exhaustion_says_so(tmp_path, capsys, command):
    g = tmp_path / "latin8.txt"
    assert run(["gen", "--kind", "latin", "--n", "8", "--seed", "3", "-o", str(g)]) == 0
    capsys.readouterr()
    assert run([*command, "--node-limit", "50", str(g)]) == 3
    captured = capsys.readouterr()
    assert json.loads(captured.out)["optimal"] is False
    assert re.fullmatch(
        r"budget exhausted: oracle stopped \(node_limit\) after \d+ nodes without proving the maximum\n",
        captured.err,
    )


def _oracle_max_instances(tmp_path):
    graphs = [generate_instance("latin", n, seed=n) for n in range(4, 8)]
    graphs += [
        generate_instance("random", 6, 5, False, seed=seed, left_size=7, right_size=7)
        for seed in (11, 12)
    ]
    for i, g in enumerate(graphs):
        f = tmp_path / f"g{i}.txt"
        f.write_text(write_edge_list(g))
        yield g, str(f)


def test_oracle_max_is_solve_with_the_oracle(tmp_path, capsys):
    # one handler serves both: oracle-max's report is solve's, renamed, with
    # the oracle's node count added; exit codes and stderr agree
    exits = set()
    for g, f in _oracle_max_instances(tmp_path):
        for fmt in ("json", "text"):
            for limit in ([], ["--node-limit", "50"]):
                options = ["--format", fmt, *limit, f]
                solve_code = run(["solve", "--algorithm", "oracle", *options])
                solve = capsys.readouterr()
                code = run(["oracle-max", *options])
                captured = capsys.readouterr()
                assert (code, captured.err) == (solve_code, solve.err)
                exits.add(code)
                budget = SearchBudget(node_limit=int(limit[1])) if limit else SearchBudget()
                nodes = exact_max_rainbow_matching(g, budget=budget).nodes
                if fmt == "json":
                    expected = json.loads(solve.out) | {"algorithm": "oracle-max", "nodes": nodes}
                    text = json.dumps(expected, sort_keys=True, separators=(",", ":")) + "\n"
                else:
                    fields = dict(line.split(": ", 1) for line in solve.out.splitlines())
                    fields |= {"algorithm": "oracle-max", "nodes": str(nodes)}
                    text = "".join(f"{key}: {fields[key]}\n" for key in sorted(fields))
                assert captured.out == text
    assert exits == {0, 1, 3}


def test_oracle_max_past_the_recursion_limit_stops_unproved(tmp_path, capsys):
    # the oracle recurses once per colour, and 1,200 colours pass the
    # interpreter's default limit of 1,000 frames
    f = tmp_path / "diagonal.txt"
    f.write_text("1200 1200 1200\n" + "".join(f"{i} {i} {i}\n" for i in range(1200)))
    assert run(["oracle-max", str(f)]) == 3
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["optimal"] is False
    assert 0 < payload["size"] < 1200
    assert captured.err.startswith("budget exhausted: oracle stopped (recursion)")
    assert "Traceback" not in captured.err


def test_oracle_max_subcommand(tmp_path, capsys):
    f = tmp_path / "sq.txt"
    f.write_text("2 2 2\n0 0 0\n1 1 0\n0 1 1\n1 0 1\n")
    code, out = _capture(capsys, ["oracle-max", str(f)])
    assert code == 1  # maximum 1 < 2 colours
    payload = json.loads(out)
    assert payload["size"] == 1
    assert payload["optimal"] is True


def test_gen_round_trips_through_solve(tmp_path, capsys):
    f = tmp_path / "inst.txt"
    code, out = _capture(
        capsys,
        ["gen", "--kind", "random", "--n", "3", "--class-size", "4", "--seed", "5",
         "--left", "5", "--right", "5", "-o", str(f)],
    )
    assert code == 0
    g = read_edge_list(f.read_text())
    assert g.colour_count == 3
    code, _ = _capture(capsys, ["solve", str(f)])
    assert code in (0, 1)


def test_gen_stdout_deterministic(capsys):
    code, out1 = _capture(capsys, ["gen", "--kind", "latin", "--n", "4", "--seed", "3"])
    code, out2 = _capture(capsys, ["gen", "--kind", "latin", "--n", "4", "--seed", "3"])
    assert code == 0
    assert out1 == out2


def test_bounds_subcommand(capsys):
    code, out = _capture(capsys, ["bounds", "--epsilon", "1/10", "--m", "1"])
    assert code == 0
    payload = json.loads(out)
    names = {t["name"]: t for t in payload["thresholds"]}
    assert names["edge_disjoint_guarantee_threshold"]["value"] == str(10**180)
    assert names["edge_disjoint_guarantee_threshold"]["feasible_at_desk_scale"] is False



@pytest.mark.parametrize("option", ["--epsilon", "--k1"])
@pytest.mark.parametrize("value", ["1/0", "nan", "inf", "abc"])
def test_bounds_names_an_option_that_is_no_finite_rational(capsys, option, value):
    given = {"--epsilon": "1/2", "--k1": "1"}
    given[option] = value
    assert run(["bounds", *(f"{o}={v}" for o, v in given.items())]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {option} must be a finite rational such as 1/2 or 0.25, got {value!r}\n"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--m=-3"], "m must be at least 1, got -3"),
        (["--k=0"], "k must be at least 1, got 0"),
        (["--k1=0"], "k1 must be positive, got 0"),
        (["--k1=-1/2"], "k1 must be positive, got -1/2"),
    ],
)
def test_bounds_names_a_parameter_outside_its_domain(capsys, argv, message):
    assert run(["bounds", "--epsilon", "1/2", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "epsilon, by_magnitude",
    [
        ("1/1000", {"edge_disjoint_guarantee_threshold"}),
        # initial_pin_budget is near 1 here, but its terms have 12,000 digits
        ("1/999", {"edge_disjoint_guarantee_threshold", "initial_pin_budget"}),
        ("1/10000", {"edge_disjoint_guarantee_threshold", "initial_pin_budget"}),
    ],
)
def test_bounds_reports_a_threshold_too_large_to_print_by_its_magnitude(
    capsys, epsilon, by_magnitude
):
    code, out = _capture(capsys, ["bounds", "--epsilon", epsilon])
    assert code == 0
    thresholds = json.loads(out)["thresholds"]
    assert all(math.isfinite(t["log10"]) for t in thresholds)
    assert {t["name"] for t in thresholds if not t["exact"]} == by_magnitude
    assert all(t["value"] is None for t in thresholds if not t["exact"])


# at 1e-320 the exponent 16/eps is itself past a float's range
@pytest.mark.parametrize("epsilon", [f"1/{10**306}", "1e-320"], ids=["1/10^306", "1e-320"])
def test_bounds_names_eps_when_a_log10_passes_a_float(capsys, epsilon):
    assert run(["bounds", "--epsilon", epsilon]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: eps is too small: the log10 of edge_disjoint_guarantee_threshold "
        "passes a float's range\n"
    )


@pytest.mark.parametrize(
    "epsilon, argv, exact",
    [
        # 40/eps^2 has 602 digits, 1800k/eps^4 has 1,204
        (f"1/{10**300}", ["--k", "1"], {"connected_set_diameter", "rainbow_connected_set_diameter",
                                        "connected_set_min_order", "midpoint_bundle_size"}),
        # near 1, but every rational threshold has over 4,000 digits
        (f"{10**1100 - 1}/{10**1100}", ["--k", "1"], set()),
    ],
    ids=["1/10^300", "1-1/10^1100"],
)
def test_bounds_reports_a_long_rational_threshold_by_its_magnitude(capsys, epsilon, argv, exact):
    code, out = _capture(capsys, ["bounds", "--epsilon", epsilon, *argv])
    assert code == 0
    thresholds = json.loads(out)["thresholds"]
    assert all(math.isfinite(t["log10"]) for t in thresholds)
    assert {t["name"] for t in thresholds if t["exact"]} == exact
    assert all((t["value"] is None) != t["exact"] for t in thresholds)


@pytest.mark.parametrize("number", [float("nan"), float("inf"), -float("inf")])
def test_json_output_refuses_a_non_finite_number(capsys, number):
    with pytest.raises(ValueError):
        cli._emit({"log10": number}, "json")
    assert capsys.readouterr().out == ""

def test_menger_subcommand(capsys):
    code, out = _capture(capsys, ["menger", "--k", "1", "--m", "4", "--lp"])
    assert code == 0
    payload = json.loads(out)
    assert payload["property_I"] and payload["property_II"]
    assert payload["path_count"] == 5
    assert payload["lp"]["primal_value"] == "5/4"


def test_menger_lp_enumerates_the_paths_once(capsys, monkeypatch):
    calls = []
    enumerate_paths = menger.rainbow_st_paths

    def counted(*args, **kwargs):
        calls.append(args)
        return enumerate_paths(*args, **kwargs)

    monkeypatch.setattr(menger, "rainbow_st_paths", counted)
    code, out = _capture(capsys, ["menger", "--k", "2", "--m", "6", "--lp"])
    assert code == 0 and json.loads(out)["path_count"] == 43
    assert len(calls) == 1


def test_menger_simple_subcommand(capsys):
    code, out = _capture(capsys, ["menger", "--k", "1", "--m", "4", "--simple"])
    assert code == 0
    payload = json.loads(out)
    assert payload["property_I"] and payload["property_II"]
    assert payload["path_count"] == 5


def test_connectivity_ball_subcommand(capsys):
    code, out = _capture(
        capsys,
        ["connectivity", "--op", "ball", "--vertices", "30", "--out-degree", "5",
         "--seed", "2", "--epsilon", "0.5"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["t0"] <= 2


@pytest.mark.parametrize("vertex", ["99", "40", "-1"])
def test_connectivity_ball_names_a_vertex_outside_the_digraph(capsys, vertex):
    argv = ["connectivity", "--op", "ball", "--vertices", "40", "--vertex", vertex]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: vertex {vertex} is not among the digraph's 40 vertices\n"


def test_connectivity_kdset_subcommand(capsys):
    code, out = _capture(
        capsys,
        ["connectivity", "--op", "kdset", "--vertices", "12", "--out-degree", "8",
         "--seed", "2", "--epsilon", "0.9", "--k", "1"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["connected"] in (True, False)


@pytest.mark.parametrize("anchors", ["0,x", ""])
def test_connectivity_through_path_names_bad_anchors(capsys, anchors):
    argv = ["connectivity", "--op", "through-path", "--vertices", "10", "--anchors", anchors]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: --anchors needs comma-separated vertex ids, got {anchors!r}\n"
    )


def test_connectivity_names_a_negative_out_degree(capsys):
    argv = ["connectivity", "--op", "twohop", "--vertices", "5", "--out-degree", "-1"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out-degree must be non-negative, got -1\n"


@pytest.mark.parametrize("shape", [("3", "0"), ("12", "8")], ids=["degenerate", "peeled"])
def test_connectivity_kdset_names_an_unknown_mode_at_every_size(capsys, shape):
    # three vertices of out-degree 0 take the vacuous fallback, twelve reach
    # the verifier: both must refuse the mode before either
    vertices, degree = shape
    argv = ["connectivity", "--op", "kdset", "--vertices", vertices, "--out-degree", degree,
            "--mode", "foo"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown mode 'foo'\n"


@pytest.mark.parametrize("shape", [("3", "0"), ("12", "8")], ids=["degenerate", "peeled"])
@pytest.mark.parametrize("k", ["0", "-1"])
def test_connectivity_kdset_refuses_k_below_one(capsys, shape, k):
    vertices, degree = shape
    argv = ["connectivity", "--op", "kdset", "--vertices", vertices, "--out-degree", degree,
            "--k", k]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: k must be at least 1, got {k}\n"


@pytest.mark.parametrize(
    "command, options, message",
    [
        ("solve", ["--depth-cap", "-1"], "--depth-cap must be non-negative, got -1"),
        ("solve", ["--algorithm", "greedy", "--depth-cap", "-1"],
         "--depth-cap must be non-negative, got -1"),
        ("solve", ["--time-limit", "nan"], "time_limit must be positive, got nan"),
        ("oracle-max", ["--time-limit", "nan"], "time_limit must be positive, got nan"),
        ("solve", ["--algorithm", "greedy", "--node-limit", "0"], "node_limit must be positive, got 0"),
    ],
)
def test_solvers_name_a_limit_that_would_not_bound_them(capsys, tmp_path, command, options, message):
    f = tmp_path / "g.txt"
    f.write_text(write_edge_list(generate_instance("random", 3, 4, True, seed=1, left_size=5, right_size=5)))
    assert run([command, str(f), *options]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("algorithm", ["greedy", "golden", "oracle"])
@pytest.mark.parametrize("cap", ["0", "3"])
def test_solve_refuses_a_depth_cap_its_algorithm_ignores(capsys, tmp_path, algorithm, cap):
    f = tmp_path / "g.txt"
    f.write_text(write_edge_list(generate_instance("random", 3, 4, True, seed=1, left_size=5, right_size=5)))
    assert run(["solve", str(f), "--algorithm", algorithm, "--depth-cap", cap]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --depth-cap applies only to --algorithm switching\n"
    assert run(["solve", str(f), "--algorithm", "switching", "--depth-cap", cap]) in (0, 1)



@pytest.mark.parametrize("epsilon", ["nan", "inf", "-inf", "1/0"])
def test_connectivity_ball_names_a_non_finite_epsilon(capsys, epsilon):
    assert run(["connectivity", "--op", "ball", f"--epsilon={epsilon}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: --epsilon must be a finite rational such as 1/2 or 0.25, got {epsilon!r}\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["--op", "ball", "--vertices", "30", "--out-degree", "5", "--seed", "2"],
        ["--op", "kdset", "--vertices", "12", "--out-degree", "8", "--seed", "2"],
    ],
    ids=["ball", "kdset"],
)
def test_connectivity_epsilon_takes_a_fraction_or_a_decimal(capsys, argv):
    outs = []
    for epsilon in ("1/4", "0.25"):
        code, out = _capture(capsys, ["connectivity", *argv, "--epsilon", epsilon])
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--n", "2", "--class-size", "-1"], "class size must be non-negative, got -1"),
        (["--n", "-2", "--class-size", "1"], "n must be non-negative, got -2"),
        (["--n", "2", "--class-size", "1", "--left", "-1"], "left size must be non-negative, got -1"),
        (["--n", "2", "--class-size", "1", "--right", "-3"], "right size must be non-negative, got -3"),
        (["--n", "2", "--class-size", "3", "--left", "2"], "class size 3 exceeds side capacity 2"),
    ],
)
def test_gen_names_the_parameter_that_failed(capsys, argv, message):
    assert run(["gen", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_every_subcommand_defaults_to_the_default_budget():
    minimal = {
        "solve": ["g.txt"],
        "transversal": ["sq.txt"],
        "verify": ["g.txt", "m.txt"],
        "oracle-max": ["g.txt"],
        "connectivity": ["--op", "ball"],
        "menger": ["--k", "1", "--m", "2"],
        "bounds": ["--epsilon", "1"],
        "gen": ["--n", "1"],
    }
    assert set(minimal) == set(cli._HANDLERS)
    budgeted = {"solve", "transversal", "oracle-max", "connectivity", "menger"}
    for name, rest in minimal.items():
        if name in budgeted:
            args = cli.build_parser().parse_args([name, *rest])
            assert cli._budget(args) == SearchBudget()
        else:
            # a command that searches nothing takes no budget flags
            with pytest.raises(SystemExit) as exc:
                cli.build_parser().parse_args([name, *rest, "--node-limit", "1"])
            assert exc.value.code == 2


def test_unknown_file_exit_2(capsys):
    code, _ = _capture(capsys, ["solve", "/nonexistent/path.txt"])
    assert code == 2


def test_connectivity_ball_honours_node_limit(capsys):
    argv = ["connectivity", "--op", "ball", "--vertices", "60", "--out-degree", "14",
            "--epsilon", "0.2", "--node-limit", "10"]
    assert run(argv) == 3
    assert "budget exhausted" in capsys.readouterr().err


def test_connectivity_kdset_node_limit_bounds_the_verdict(capsys):
    # every node of the verdict's search tree counts against the node limit
    argv = ["connectivity", "--op", "kdset", "--vertices", "12", "--out-degree", "8",
            "--seed", "2", "--epsilon", "0.9", "--k", "2"]
    assert run([*argv, "--node-limit", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "budget exhausted: node limit exceeded (1)\n"


def test_transversal_budget_exhaustion_says_so(tmp_path, capsys):
    f = tmp_path / "sq.txt"
    f.write_text(latin_text(random_latin_square(12, seed=1)))
    assert run(["transversal", "--node-limit", "2000", str(f)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("budget exhausted:")


def test_golden_unproved_oracle_fallback_exits_3(tmp_path, capsys):
    # an isotope of the order-6 cyclic square: it has no transversal
    g = tmp_path / "latin6.txt"
    assert run(["gen", "--kind", "latin", "--n", "6", "-o", str(g)]) == 0
    argv = ["solve", "--algorithm", "golden", "--trace", str(g)]
    assert run(argv) == 1  # proved maximum 5 of 6
    capsys.readouterr()
    assert run([*argv, "--node-limit", "100"]) == 3
    captured = capsys.readouterr()
    assert json.loads(captured.out)["size"] == 5
    assert re.fullmatch(
        r"budget exhausted: oracle stopped \(node_limit\) after \d+ nodes without proving the maximum\n",
        captured.err,
    )


def test_python_m_cli_runs_main():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "rainbowmatch.cli", "bounds", "--epsilon", "1/2"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["epsilon"] == "1/2"
