import pytest

from pwdp.cli import main

P4 = "graph 4 3\ne 1 2\ne 2 3\ne 3 4\n"
K3 = "graph 3 3\ne 1 2\ne 1 3\ne 2 3\n"
STAR4 = "graph 4 3\ne 1 2\ne 1 3\ne 1 4\n"
GRID23 = "grid 2 3\n...\n...\n"
P3_AVG = "graph 3 2\ne 1 2\ne 2 3\nvw 1 1\nvw 2 10\nvw 3 1\n"
P4_PD = "pd 3\nbag 1 2\nbag 2 3\nbag 3 4\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_path_cover_auto(tmp_path, capsys):
    g = write(tmp_path, "p4.g", P4)
    code, out, _ = run(capsys, "solve", "path-cover", "--graph", g,
                       "--decomp", "auto")
    assert code == 0
    assert "objective 1" in out.splitlines()[0]
    assert any(line.startswith("stats ") for line in out.splitlines())
    assert any(line.startswith("time ") for line in out.splitlines())


def test_solve_infeasible_exit_2(tmp_path, capsys):
    g = write(tmp_path, "k3.g", K3)
    code, out, _ = run(capsys, "solve", "coloring", "--graph", g, "-C", "2")
    assert code == 2
    assert out.splitlines()[0] == "infeasible"


def test_oracle_star(tmp_path, capsys):
    g = write(tmp_path, "star4.g", STAR4)
    code, out, _ = run(capsys, "oracle", "path-cover", "--graph", g)
    assert code == 0
    assert out.splitlines()[0] == "objective 2"


def test_certificate_block(tmp_path, capsys):
    g = write(tmp_path, "k3.g", K3)
    code, out, _ = run(capsys, "solve", "coloring", "--graph", g,
                       "-C", "3", "--reconstruct")
    assert code == 0
    lines = out.splitlines()
    assert "certificate" in lines
    colors = [l for l in lines if l.startswith("color ")]
    assert len(colors) == 3
    for line in colors:
        _, v, c = line.split()
        assert 1 <= int(v) <= 3 and 1 <= int(c) <= 3


def test_avg_path_rational_output(tmp_path, capsys):
    g = write(tmp_path, "p3.g", P3_AVG)
    code, out, _ = run(capsys, "solve", "avg-path", "--graph", g,
                       "-L", "2", "-U", "2")
    assert code == 0
    assert out.splitlines()[0].startswith("objective 11/2 (~5.5")
    # solve and oracle print the same value the same way, in lowest terms
    g = write(tmp_path, "p3w.g", "graph 3 2\ne 1 2\ne 2 3\n"
                                 "vw 1 2\nvw 2 4\nvw 3 1\n")
    for cmd in ("solve", "oracle"):
        code, out, _ = run(capsys, cmd, "avg-path", "--graph", g,
                           "-L", "2", "-U", "2")
        assert code == 0
        assert out.splitlines()[0] == "objective 3/1 (~3.000000)"


def test_grid_instance_with_pruning(tmp_path, capsys):
    g = write(tmp_path, "g23.grid", GRID23)
    code, out, _ = run(capsys, "solve", "path-cover", "--grid", g,
                       "--prune-catalan", "--reconstruct")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "objective 1"
    assert len([l for l in lines if l.startswith("edge ")]) == 5


def test_rect_cover_on_grid(tmp_path, capsys):
    g = write(tmp_path, "g23.grid", GRID23)
    code, out, _ = run(capsys, "solve", "rect-cover", "--grid", g,
                       "--piece", "2x2", "--piece", "1x1", "--reconstruct")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "objective 6"
    assert len([l for l in lines if l.startswith("place ")]) == 6


def test_states_canonical_count(capsys):
    code, out, _ = run(capsys, "states", "coloring-canonical",
                       "-C", "7", "--nv", "9")
    assert code == 0
    assert "nv 9 states 21110" in out.splitlines()


def test_states_naive_count(capsys):
    code, out, _ = run(capsys, "states", "coloring", "-C", "3", "--nv", "4")
    assert code == 0
    assert "nv 4 states 81" in out.splitlines()


def test_validate_decomp(tmp_path, capsys):
    g = write(tmp_path, "p4.g", P4)
    d = write(tmp_path, "p4.pd", P4_PD)
    code, out, _ = run(capsys, "validate-decomp", "--graph", g, "--decomp", d)
    assert code == 0
    assert out.splitlines()[0] == "valid width 1"


def test_validate_decomp_rejects(tmp_path, capsys):
    g = write(tmp_path, "p4.g", P4)
    d = write(tmp_path, "bad.pd", "pd 2\nbag 1 2\nbag 3 4\n")
    code, _, err = run(capsys, "validate-decomp", "--graph", g, "--decomp", d)
    assert code == 1
    assert "error:" in err


def test_decomp_file_missing_vertex_same_kind_everywhere(tmp_path, capsys):
    # one bag of P4 misses vertices 3 and 4; every entry point must name
    # the missing vertex, not the node count of the nice form
    g = write(tmp_path, "p4.g", P4)
    d = write(tmp_path, "short.pd", "pd 1\nbag 1 2\n")
    for argv in (("validate-decomp",), ("nicify",), ("solve", "mwis")):
        code, out, err = run(capsys, *argv, "--graph", g, "--decomp", d)
        assert code == 1
        assert "missing-vertex" in err
        assert out == ""


def test_nicify_round_trip(tmp_path, capsys):
    g = write(tmp_path, "p4.g", P4)
    d = write(tmp_path, "p4.pd", P4_PD)
    code, out, _ = run(capsys, "nicify", "--graph", g, "--decomp", d)
    assert code == 0
    # feeding the refined file back in solves identically
    d2 = write(tmp_path, "nice.pd", out)
    code, out, _ = run(capsys, "solve", "mwis", "--graph", g, "--decomp", d2)
    assert code == 0
    assert out.splitlines()[0] == "objective 2"


def test_missing_file_is_error(capsys):
    code, _, err = run(capsys, "solve", "coloring", "--graph",
                       "/nonexistent.g", "-C", "2")
    assert code == 1
    assert "error:" in err


def test_missing_param_is_error(tmp_path, capsys):
    g = write(tmp_path, "k3.g", K3)
    code, _, err = run(capsys, "solve", "coloring", "--graph", g)
    assert code == 1
    assert "C" in err


def test_rect_cover_without_piece_is_error(tmp_path, capsys):
    g = write(tmp_path, "g23.grid", GRID23)
    code, _, err = run(capsys, "solve", "rect-cover", "--grid", g)
    assert code == 1
    assert "missing required parameter 'pieces'" in err


@pytest.mark.parametrize("argv, message", [
    (("coloring", "--graph", "k3.g", "-C", "0"), "C must be >= 1"),
    (("penalty-coloring", "--graph", "k3.g", "-C", "0"), "C must be >= 1"),
    (("coloring", "--graph", "k3.g"), "missing required parameter 'C'"),
    (("rect-cover", "--grid", "g23.grid", "--piece", "9x9"),
     "wider than the grid"),
    # max mode seeds the worst penalty with 0, which -3 cannot beat
    (("penalty-coloring", "--graph", "neg.g", "-C", "1", "--mode", "max"),
     "penalties >= 0"),
], ids=["coloring-C0", "penalty-coloring-C0", "missing-C", "wide-piece",
        "max-mode-negative-penalty"])
def test_solve_and_oracle_reject_parameters_alike(tmp_path, capsys, argv,
                                                  message):
    write(tmp_path, "k3.g", K3)
    write(tmp_path, "g23.grid", GRID23)
    write(tmp_path, "neg.g", "graph 2 1\ne 1 2\npen 1 2 -3\n")
    argv = [str(tmp_path / a) if a.endswith((".g", ".grid")) else a
            for a in argv]
    seen = []
    for cmd in ("solve", "oracle"):
        code, out, err = run(capsys, cmd, *argv)
        assert code == 1
        assert out == ""
        assert message in err
        seen.append(err)
    assert seen[0] == seen[1]


def test_auto_needs_file_beyond_tiny(tmp_path, capsys):
    n = 13
    edges = [(i, i + 1) for i in range(1, n)]
    text = f"graph {n} {len(edges)}\n" + "".join(f"e {u} {v}\n" for u, v in edges)
    g = write(tmp_path, "p13.g", text)
    code, _, err = run(capsys, "solve", "mwis", "--graph", g)
    assert code == 1
    assert "--decomp" in err


def test_dump_tables(tmp_path, capsys):
    g = write(tmp_path, "k3.g", K3)
    code, out, _ = run(capsys, "solve", "coloring", "--graph", g,
                       "-C", "3", "--dump-tables")
    assert code == 0
    lines = out.splitlines()
    assert any(l.startswith("node 1 introduce") for l in lines)
    assert any(l.startswith("state ") and "value" in l for l in lines)
