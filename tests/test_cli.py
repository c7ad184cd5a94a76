import collections
import io
import json
import os
import random
import re
import string
import subprocess
import sys

import pytest

from jetschemes import GenericMatrix, Graph, Ideal, MonomialIdeal, ParseError, Poly, PolyRing
from jetschemes.cli import main, run_script

from expected import (XYZ_JET2_GENERATORS, XYZ_JET2_MINIMAL_PRIMES,
                      XYZ_JET2_RADICAL)
from oracles import run_script_by_regex

JETS_SCRIPT = "ring R = [x,y,z]; ideal I = x*y*z; jets 2 I;"
EMPTY_SCRIPT = "ring R = [x]; ideal I = 0; jets 3 I;"
GRAPH_SCRIPT = "graph G = a-c,a-d,a-e,b-c,b-d,b-e,c-e; graphjets 2 G; chromatic G;"


def test_jets_script_transcript():
    lines = run_script(JETS_SCRIPT).splitlines()
    assert lines[0] == "[1] ring R = QQ[x,y,z]"
    assert lines[1] == "[2] ideal I = ideal(x*y*z)"
    assert lines[2] == "[3] jets 2 I"
    assert lines[3:] == XYZ_JET2_GENERATORS


def test_zero_ideal_script_has_empty_generator_block():
    lines = run_script(EMPTY_SCRIPT).splitlines()
    assert lines == ["[1] ring R = QQ[x]",
                     "[2] ideal I = ideal()",
                     "[3] jets 3 I"]


def test_radical_of_the_unit_ideal_prints_its_generator():
    script = "ring R = [x,y]; ideal I = 1; jetsradical 1 I;"
    assert run_script(script).splitlines() == ["[1] ring R = QQ[x,y]",
                                               "[2] ideal I = ideal(1)",
                                               "[3] jetsradical 1 I",
                                               "1"]
    assert run_script(script, json_mode=True) == \
        '{"generators":["1"],"kind":"ideal","ring":["x0","y0","x1","y1"]}'


def test_comma_inside_a_spelled_out_subscript_stays_in_its_generator():
    lines = run_script("ring R = [x,y,x_(1,2)]; ideal I = x _( 1 , 2 ), y^2;").splitlines()
    assert lines[1] == "[2] ideal I = ideal(x_(1,2),y^2)"


def test_graph_script_transcript():
    lines = run_script(GRAPH_SCRIPT).splitlines()
    assert lines[0].startswith("[1] graph G = vertices a,c,d,e,b;")
    edge_lines = lines[2:44]
    assert len(edge_lines) == 42
    assert all("-" in line for line in edge_lines)
    assert lines[44] == "[3] chromatic G"
    assert lines[45] == "3"


def test_json_jets_order0():
    out = run_script("ring R = [x]; ideal I = x; jets 0 I;", json_mode=True)
    assert out == '{"generators":["x0"],"kind":"ideal","ring":["x0"]}'


def test_json_radical_and_primes():
    script = ("ring R = [x,y,z]; ideal I = x*y*z;"
              " jetsradical 2 I; ideal RAD = jetsradical 2 I;"
              " minimalprimes RAD;")
    rad_line, primes_line = run_script(script, json_mode=True).splitlines()
    rad = json.loads(rad_line)
    assert rad["kind"] == "ideal"
    assert rad["generators"] == XYZ_JET2_RADICAL
    primes = json.loads(primes_line)
    got = [set(p) for p in primes["primes"]]
    assert len(got) == 10
    for expected in XYZ_JET2_MINIMAL_PRIMES:
        assert expected in got


def test_json_graph_schema():
    out = run_script("graph G = a-b; complement G;", json_mode=True)
    obj = json.loads(out)
    assert obj == {"kind": "graph", "vertices": ["a", "b"], "edges": []}


def test_chained_minors_and_jets():
    script = ("ring R = [x_(1,1)..x_(3,3)]; matrix M = generic(R,3,3);"
              " ideal I3 = minors 3 M; jets 1 I3;")
    lines = run_script(script).splitlines()
    assert lines[1] == "[2] matrix M = generic(R,3,3)"
    assert lines[2] == "| x_(1,1) x_(2,1) x_(3,1) |"
    # the jets block holds the two coefficients of the determinant,
    # highest order first
    assert lines[-3] == "[4] jets 1 I3"
    assert "x1_(1,1)" in lines[-2]
    assert "x1_" not in lines[-1] and "x0_(1,1)" in lines[-1]


def test_covers_and_chordal_commands():
    script = "graph G = a-b,b-c; covers G; chordal G; chromatic G;"
    lines = run_script(script).splitlines()
    assert lines[1] == "[2] covers G"
    assert lines[2] == "(b)"
    assert lines[3] == "(a,c)"
    assert lines[4:] == ["[3] chordal G", "true", "[4] chromatic G", "2"]


def test_graph_binding_from_commands():
    script = ("graph G = a-b,b-c; graph J1 = graphjets 1 G;"
              " graph H = complement G; covers J1; chordal H;")
    lines = run_script(script).splitlines()
    assert lines[0].startswith("[1] graph G")
    assert lines[1] == "[2] graph J1 = graphjets 1 G"
    assert lines[2] == "[3] graph H = complement G"
    assert lines[3] == "[4] covers J1"
    # covers of the jets graph of the path a-b-c
    assert lines[-2:] == ["[5] chordal H", "true"]


def test_statement_spanning_lines_with_vertex_header():
    script = "graph G = vertices a,b,c\na-b;\nchromatic G;"
    lines = run_script(script).splitlines()
    assert lines[0] == "[1] graph G = vertices a,b,c; edges a-b"
    assert lines[2] == "2"


def test_binding_bodies_that_start_with_a_command_word():
    # a command word followed by an operator, or alone, begins a graph or an
    # ideal body
    assert run_script("graph G = complement - a;") == \
        "[1] graph G = vertices complement,a; edges complement-a"
    lines = run_script("ring R = [jets,x]; ideal I = jets * x;").splitlines()
    assert lines[1] == "[2] ideal I = ideal(jets*x)"
    assert run_script("ring R = [jets,x]; ideal I = jets;").splitlines() == \
        ["[1] ring R = QQ[jets,x]", "[2] ideal I = ideal(jets)"]


def test_tokens_do_not_see_whitespace_in_a_command():
    # "1I" is the two tokens 1 and I, so the command is read as "jets 1 I"
    script = "ring R = [x]; ideal I = x; jets 1I;"
    assert run_script(script) == run_script(script.replace("1I", "1 I"))
    assert run_script(script).splitlines()[2] == "[3] jets 1 I"


def test_rebinding_a_name_is_an_error():
    with pytest.raises(ValueError, match="already defined"):
        run_script("ring R = [x]; ring R = [y];")


def test_unknown_name_is_semantic_error():
    with pytest.raises(ValueError, match="unknown name"):
        run_script("ring R = [x]; jets 1 J;")


def test_wrong_kind_is_semantic_error():
    with pytest.raises(ValueError, match="not a graph"):
        run_script("ring R = [x]; ideal I = x; chromatic I;")


def test_missing_semicolon_is_parse_error():
    with pytest.raises(ParseError, match="missing ';'"):
        run_script("ring R = [x]")


def test_ideal_without_ring_is_semantic_error():
    with pytest.raises(ValueError, match="no ring"):
        run_script("ideal I = x;")


def test_determinism_of_run_script():
    for script in (JETS_SCRIPT, EMPTY_SCRIPT, GRAPH_SCRIPT):
        assert run_script(script) == run_script(script)
        assert run_script(script, json_mode=True) == \
            run_script(script, json_mode=True)


def test_main_reads_script_file(tmp_path, capsys):
    path = tmp_path / "session.txt"
    path.write_text(JETS_SCRIPT, encoding="utf-8")
    assert main(["--script", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[3:] == XYZ_JET2_GENERATORS


def test_main_parse_error_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("ring R = [x,y];\nideal I = x*;\n", encoding="utf-8")
    assert main(["--script", str(path)]) == 2
    err = capsys.readouterr().err
    assert "parse error: line 2" in err


@pytest.mark.parametrize("command", ["jetsradical 1 I", "ideal J = jetsradical 1 I",
                                     "minimalprimes I"])
def test_non_monomial_ideal_is_named(tmp_path, capsys, command):
    # the radical and the primes refuse a non-monomial ideal by its name, exit 1
    path = tmp_path / "bad.txt"
    path.write_text(f"ring R = [x,y]; ideal I = x+y; {command};", encoding="utf-8")
    assert main(["--script", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "[1] ring R = QQ[x,y]\n[2] ideal I = ideal(x+y)\n"
    assert captured.err == "error: I is not a monomial ideal\n"


def test_chromatic_number_of_a_crown_graph():
    # bipartite, but first-fit in the search's degree order needs 4 colors
    script = ("graph G = vertices a..h\n"
              "a-d,a-f,a-h,c-b,c-f,c-h,e-b,e-d,e-h,g-b,g-d,g-f; chromatic G;")
    assert run_script(script).splitlines()[1:] == ["[2] chromatic G", "2"]


def test_main_semantic_error_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("ring R = [x]; jets 1 NOPE;", encoding="utf-8")
    assert main(["--script", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "[1] ring R = QQ[x]\n"
    assert captured.err == "error: unknown name NOPE\n"


@pytest.mark.parametrize("script, err", [
    ("ring R = [x,y]; ideal I = x*y; jets 12345678901234567890 I;",
     "error: jets of order 12345678901234567890 need 24691357802469135782 jet variables,"
     " more than 1000000\n"),
    ("ring R = [x,y]; ideal I = x*y; jetsradical 500000 I;",
     "error: jets of order 500000 need 1000002 jet variables, more than 1000000\n"),
    ("graph G = a-b,b-c; graphjets 333333 G;",
     "error: jets of order 333333 need 1000002 jet variables, more than 1000000\n"),
])
def test_main_refuses_too_many_jet_variables_at_once(tmp_path, capsys, script, err):
    # one past the bound (never near a ring of that size): exit 1, before any name is built
    path = tmp_path / "big.txt"
    path.write_text(script, encoding="utf-8")
    assert main(["--script", str(path), "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err


@pytest.mark.parametrize("script, code, err", [
    ("ring R = [x_(1)..x_(99999999999)];", 2,
     "parse error: line 1, column 11: range brings the list to 99999999999 names,"
     " more than 1000000\n"),
    ("graph G = vertices x_(1,1)..x_(3000,3000)\n;", 2,
     "parse error: line 1, column 20: range brings the list to 9000000 names,"
     " more than 1000000\n"),
    ("ring R = [x_(1,1)..x_(12,12)]; matrix M = generic(R,12,12); minors 12 M;", 1,
     "error: the 12x12 minors of a 12x12 matrix have 479001600 terms, more than 1000000\n"),
    # a-b has (s+1)(s+2)/2 jet edges: 1,000,405 at s = 1413, one order too many
    ("graph G = a-b; graphjets 1413 G;", 1,
     "error: jets of order 1413 have 1000405 edges, more than 1000000\n"),
])
def test_main_refuses_oversized_ranges_and_minors_at_once(tmp_path, capsys, script, code, err):
    # a range is a parse error at its first name (exit 2), minors and graph
    # jets a plain error (exit 1); all are refused before any name, term or
    # mask is built
    path = tmp_path / "big.txt"
    path.write_text(script, encoding="utf-8")
    assert main(["--script", str(path), "--json"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err


@pytest.mark.parametrize("flag, out", [
    ([], "[1] ring R = QQ[x,y]\n[2] ideal I = ideal(x*y)\n[3] jets 1 I\ny0*x1+x0*y1\nx0*y0\n"),
    (["--json"], '{"generators":["y0*x1+x0*y1","x0*y0"],"kind":"ideal",'
                 '"ring":["x0","y0","x1","y1"]}\n'),
])
def test_main_prints_the_statements_before_an_error(tmp_path, capsys, flag, out):
    # each statement's block is written once it has run, so a failing
    # statement keeps the output of those before it
    path = tmp_path / "partial.txt"
    path.write_text("ring R = [x,y]; ideal I = x*y; jets 1 I; jets 1 J;", encoding="utf-8")
    assert main(["--script", str(path)] + flag) == 1
    captured = capsys.readouterr()
    assert captured.out == out and captured.err == "error: unknown name J\n"


def test_main_degree_bound_exit_1(tmp_path, capsys):
    path = tmp_path / "big.txt"
    path.write_text("ring R = [x]; ideal I = x^4294967295; ideal J = x^4294967296;",
                    encoding="utf-8")
    assert main(["--script", str(path)]) == 1
    assert capsys.readouterr().err == ("error: monomial of degree 4294967296: "
                                       "degrees must be below 2^32\n")


def test_main_iterated_graph_jets_exit_1(tmp_path, capsys):
    path = tmp_path / "iterated.txt"
    path.write_text("graph G = a-b; graph H = graphjets 1 G; graphjets 1 H;", encoding="utf-8")
    assert main(["--script", str(path)]) == 1
    assert capsys.readouterr().err == ("error: a0 is already a jet variable; "
                                       "iterated jets are not supported\n")


DIGIT_LIMIT_CASES = [
    ("ring R = [x]; ideal I = " + "7" * 5000 + "*x;", 2, "[1] ring R = QQ[x]\n",
     "parse error: line 1, column 25: integer of more than 4300 digits"),
    ("ring R = [x]; ideal I = x; jets " + "1" * 4400 + " I;", 2,
     "[1] ring R = QQ[x]\n[2] ideal I = ideal(x)\n",
     "parse error: line 1, column 33: integer of more than 4300 digits"),
    ("ring R = [x,y]; matrix M = generic(R,1," + "2" * 4301 + ");", 2, "[1] ring R = QQ[x,y]\n",
     "parse error: line 1, column 40: integer of more than 4300 digits"),
    ("ring R = [x_(" + "3" * 4400 + ")];", 2, "",
     "parse error: line 1, column 11: subscript of more than 4300 digits"),
    ("ring R = [x]; ideal I = " + "9" * 4300 + "*x^2; jets 1 I;", 1,
     "[1] ring R = QQ[x]\n[2] ideal I = ideal(" + "9" * 4300 + "*x^2)\n",
     "error: cannot print a coefficient of more than 4300 digits"),
]


# the ids leave out the transcripts
@pytest.mark.parametrize("script, code, out, err", DIGIT_LIMIT_CASES,
                         ids=[f"{s}-{c}-{e}" for s, c, _, e in DIGIT_LIMIT_CASES])
def test_main_integers_past_the_digit_limit(tmp_path, capsys, script, code, out, err):
    # Python converts at most sys.get_int_max_str_digits() digits; a token past
    # that is a parse error at it, and a coefficient past it cannot be printed;
    # the blocks of the statements before the failing one are printed
    assert sys.get_int_max_str_digits() == 4300
    path = tmp_path / "long.txt"
    path.write_text(script, encoding="utf-8")
    assert main(["--script", str(path)]) == code
    captured = capsys.readouterr()
    assert captured.out == out and captured.err == err + "\n"


# a definition whose like terms add up to a coefficient of 4,301 digits
UNPRINTABLE_DEFINITION = "ring R = [x]; ideal I = " + "9" * 4300 + "*x + " + "9" * 4300 + "*x;"


@pytest.mark.parametrize("script, flag, code, out, err", [
    (UNPRINTABLE_DEFINITION, ["--json"], 0, "", ""),
    (UNPRINTABLE_DEFINITION, [], 1, "[1] ring R = QQ[x]\n",
     "error: cannot print a coefficient of more than 4300 digits\n"),
    (UNPRINTABLE_DEFINITION + " jets 0 I;", ["--json"], 1, "",
     "error: cannot print a coefficient of more than 4300 digits\n"),
], ids=["json", "text", "json-command"])
def test_main_formats_a_definition_only_to_print_it(tmp_path, capsys, script, flag, code,
                                                   out, err):
    # --json echoes no definition, so an unprintable value fails only when a
    # command prints it
    path = tmp_path / "wide.txt"
    path.write_text(script, encoding="utf-8")
    assert main(["--script", str(path)] + flag) == code
    captured = capsys.readouterr()
    assert captured.out == out and captured.err == err


def test_main_missing_file_exit_1(tmp_path, capsys):
    assert main(["--script", str(tmp_path / "absent.txt")]) == 1
    assert "error:" in capsys.readouterr().err


def test_main_non_utf8_file_exit_1(tmp_path, capsys):
    path = tmp_path / "latin1.txt"
    path.write_bytes("ring R = [x]; ideal I = x; # caf\xe9\n".encode("latin-1"))
    assert main(["--script", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {path}: 'utf-8' codec can't decode byte 0xe9"
                            " in position 32: invalid continuation byte\n")


def test_main_non_utf8_stdin_exit_1(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"ring R = [\xff];"),
                                                       encoding="utf-8"))
    assert main([]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: <stdin>: 'utf-8' codec can't decode byte 0xff")


def test_closed_stdout_exits_1_without_traceback(tmp_path):
    # `jetschemes | head -1`: the reader leaves after one line of a
    # transcript far longer than a pipe holds (45,451 jet edges)
    path = tmp_path / "long.txt"
    path.write_text("graph G = a-b; graphjets 300 G;", encoding="utf-8")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.Popen([sys.executable, "-m", "jetschemes", "--script", str(path)],
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert first == b"[1] graph G = vertices a,b; edges a-b\n"
    assert proc.returncode == 1
    assert err == b""


# One statement of each kind; importing the package and running it in both
# output modes must load none of these modules
EVERY_KIND_SCRIPT = """ring R = [x,y,z]; ideal I = 1/2*x*y*z-y^2; jets 1 I; ideal K = x*y*z;
ideal J = jetsradical 1 K; minimalprimes J; ring S = [x_(1,1)..x_(2,2)];
matrix M = generic(S,2,2); minors 2 M; graph G = vertices a,b,c
a-b,b-c; graph H = graphjets 1 G; covers H; chordal H; complement H; chromatic H;"""
UNLOADED = ("dataclasses", "inspect", "ast", "argparse", "typing")


def test_import_and_run_load_no_heavy_modules():
    # compared with the modules loaded before the import, so that a site
    # module which preloads one of them does not count against jetschemes
    child = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import jetschemes\n"
        "from jetschemes.cli import run_script\n"
        f"run_script({EVERY_KIND_SCRIPT!r})\n"
        f"run_script({EVERY_KIND_SCRIPT!r}, json_mode=True)\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert {"jetschemes.cli", "jetschemes.graphs"} <= loaded
    assert loaded.isdisjoint(UNLOADED), sorted(loaded.intersection(UNLOADED))


def test_json_mode_formats_no_definition(monkeypatch):
    # --json prints commands only, so no defined value is turned into text
    counts = collections.Counter()
    for cls in (Poly, Ideal, PolyRing, MonomialIdeal, Graph, GenericMatrix):
        def counted(self, _str=cls.__str__, _name=cls.__name__):
            counts[_name] += 1
            return _str(self)
        monkeypatch.setattr(cls, "__str__", counted)
    records = [json.loads(line) for line in
               run_script(EVERY_KIND_SCRIPT, json_mode=True).splitlines()]
    ideals = [r for r in records if r["kind"] == "ideal"]   # of `jets 1 I` and `minors 2 M`
    assert len(ideals) == 2
    # the polys formatted are the generators printed; `minors` reads the
    # index of each matrix entry off its monomial, not its name
    assert counts == {"Poly": sum(len(r["generators"]) for r in ideals)}
    counts.clear()
    run_script(EVERY_KIND_SCRIPT)   # text mode echoes every definition
    assert set(counts) == {"Poly", "Ideal", "PolyRing", "Graph", "GenericMatrix"}


def test_main_help_exits_0_with_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "usage: jetschemes [-h] [--script FILE] [--json]"


def test_cli_and_library_agree(xyz_ideal):
    from jetschemes import jets_ideal
    lines = run_script(JETS_SCRIPT).splitlines()[3:]
    assert lines == [str(g) for g in jets_ideal(2, xyz_ideal).generators]


# One statement of each result kind, with the transcripts and JSON lines
# printed before the text and JSON renderers were folded into one record.
KINDS_SCRIPT = ("ring R = [x,y]; ideal I = x*y; graph G = a-b,b-c;"
                " ring S = [x_(1,1)..x_(2,2)]; matrix M = generic(S,2,2);"
                " chromatic G; chordal G; minimalprimes I; covers G;"
                " jetsradical 1 I; jets 1 I; minors 2 M; graphjets 1 G;")

KINDS_TEXT = [
    "[1] ring R = QQ[x,y]",
    "[2] ideal I = ideal(x*y)",
    "[3] graph G = vertices a,b,c; edges a-b,b-c",
    "[4] ring S = QQ[x_(1,1),x_(1,2),x_(2,1),x_(2,2)]",
    "[5] matrix M = generic(S,2,2)",
    "| x_(1,1) x_(2,1) |",
    "| x_(1,2) x_(2,2) |",
    "[6] chromatic G", "2",
    "[7] chordal G", "true",
    "[8] minimalprimes I", "(x)", "(y)",
    "[9] covers G", "(b)", "(a,c)",
    "[10] jetsradical 1 I", "y0*x1", "x0*y1", "x0*y0",
    "[11] jets 1 I", "y0*x1+x0*y1", "x0*y0",
    "[12] minors 2 M", "-x_(1,2)*x_(2,1)+x_(1,1)*x_(2,2)",
    "[13] graphjets 1 G", "a0-b0", "a0-b1", "b0-c0", "b0-a1", "b0-c1", "c0-b1",
]

# no line for the matrix statement, one per command
KINDS_JSON = [
    '{"kind":"number","value":2}',
    '{"kind":"bool","value":true}',
    '{"kind":"primes","primes":[["x"],["y"]]}',
    '{"covers":[["b"],["a","c"]],"kind":"covers"}',
    '{"generators":["y0*x1","x0*y1","x0*y0"],"kind":"ideal","ring":["x0","y0","x1","y1"]}',
    '{"generators":["y0*x1+x0*y1","x0*y0"],"kind":"ideal","ring":["x0","y0","x1","y1"]}',
    '{"generators":["-x_(1,2)*x_(2,1)+x_(1,1)*x_(2,2)"],"kind":"ideal",'
    '"ring":["x_(1,1)","x_(1,2)","x_(2,1)","x_(2,2)"]}',
    '{"edges":[["a0","b0"],["a0","b1"],["b0","c0"],["b0","a1"],["b0","c1"],["c0","b1"]],'
    '"kind":"graph","vertices":["a0","b0","c0","a1","b1","c1"]}',
]


def test_every_result_kind_as_text():
    assert run_script(KINDS_SCRIPT).splitlines() == KINDS_TEXT


def test_every_result_kind_as_json():
    assert run_script(KINDS_SCRIPT, json_mode=True).splitlines() == KINDS_JSON


def test_emit_json_of_a_jet_ideal():
    from jetschemes import Ideal, PolyRing, emit_json, jets_ideal, parse_poly, parse_variables
    ring = PolyRing(parse_variables("x,y"))
    jets = jets_ideal(1, Ideal(ring, [parse_poly("x^2-1/2*y", ring)]))
    assert emit_json(jets) == ('{"generators":["2*x0*x1-1/2*y1","x0^2-1/2*y0"],'
                               '"kind":"ideal","ring":["x0","y0","x1","y1"]}')


FUZZ_STATEMENTS = ("ring R = [x,y_(1)..y_(2)]", "ideal I = x*y_(1), y_(2)^2",
                   "ideal J = jets 1 I", "ideal K = jetsradical 1 I", "jets 2 I",
                   "minimalprimes K", "graph G = vertices a,b,c\na-b,b-c",
                   "graph H = graphjets 1 G", "graph C = complement H", "covers H",
                   "chordal C", "chromatic H", "matrix M = generic(R,1,2)", "minors 1 M",
                   "ideal L = 1/2*x^2-y_(2)", "jets 1 L")
FUZZ_TOKENS = ("ring", "ideal", "graph", "jets", "chromatic", "R", "I", "G", "x", "y",
               "0", "3", "=", ";", ",", "*", "^", "_", "(", ")", "[", "]", "..", "-",
               "/", "\n", "$", "")


def test_random_token_scripts_raise_only_parse_or_value_errors():
    # the statements in order, some dropped, with seeded token edits, so
    # errors come from every depth of a script
    rng = random.Random(20261018)
    statements = [re.findall(r"\w+|\.\.|\n|\S", s) for s in FUZZ_STATEMENTS]
    for case in range(2000):
        words = []
        for stmt in statements:
            if stmt is not statements[0] and rng.random() < 0.2:
                continue
            for word in stmt:
                if rng.random() < 0.02:
                    word = rng.choice(FUZZ_TOKENS)
                words.append(word)
            words.append(";")
        text = " ".join(words)
        try:
            run_script(text, json_mode=case % 2 == 1)
        except ParseError as e:
            assert 0 <= e.pos <= len(text), text
        except ValueError:
            pass


EDIT_SCRIPTS = (JETS_SCRIPT, EMPTY_SCRIPT, GRAPH_SCRIPT, KINDS_SCRIPT,
                "; ".join(FUZZ_STATEMENTS) + ";")
# a larger digit next to a command's order makes a jet order in the tens,
# whose jets take seconds
EDIT_CHARS = ";=[](),-*_ 01" + string.ascii_letters


def _outcome(run, text):
    try:
        return run(text), run(text, json_mode=True)
    except ValueError as e:
        return e


def test_single_character_edits_read_as_by_the_regex_statement_reader():
    # seeded one-character insertions and deletions in the scripts above:
    # the token reader prints what the regex reader of `oracles` prints, and
    # rejects what it rejects, with the same exception type
    rng = random.Random(20261019)
    for _ in range(1200):
        script = rng.choice(EDIT_SCRIPTS)
        at = rng.randrange(len(script))
        if rng.random() < 0.3 and (script[at] in EDIT_CHARS or script[at].isdigit()):
            text = script[:at] + script[at + 1:]
        else:
            text = script[:at] + rng.choice(EDIT_CHARS) + script[at:]
        expected = _outcome(run_script_by_regex, text)
        got = _outcome(run_script, text)
        if (isinstance(expected, ParseError) and expected.message == "malformed command"
                and re.search(r"\d [A-Za-z]", script[at - 1:at + 2]) and len(text) < len(script)):
            # tokens do not see the space deleted between an order and a name
            expected = _outcome(run_script_by_regex, script)
        if not isinstance(expected, ValueError):
            assert got == expected, text
        elif type(got) is not type(expected):
            # a bad or repeated name in a ring body is now a ParseError
            assert isinstance(got, ParseError) and got.message == str(expected), text
