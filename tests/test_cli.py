import io
import json
import os
import random
import re
import subprocess
import sys

import pytest

from jetschemes import ParseError
from jetschemes.cli import main, run_script

from expected import (XYZ_JET2_GENERATORS, XYZ_JET2_MINIMAL_PRIMES,
                      XYZ_JET2_RADICAL)

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


def test_main_semantic_error_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("ring R = [x]; jets 1 NOPE;", encoding="utf-8")
    assert main(["--script", str(path)]) == 1
    assert "unknown name" in capsys.readouterr().err


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
    from jetschemes import Ideal, emit_json, jets_ideal, parse_poly, parse_variables, ring_make
    ring = ring_make(parse_variables("x,y"))
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
