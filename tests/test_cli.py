import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from semilab.cli import EXIT_BUDGET, EXIT_INPUT, EXIT_OK, main
from semilab.rank1 import rank1_universe

INPUTS = Path(__file__).resolve().parent.parent / "inputs"

QUAD_TEXT = """\
letters: x y a b c d u v
rel: x a = y b
rel: x c = y d
rel: u a = v b
"""

FREEGRP2_TEXT = """\
letters: a a' b b'
rel: a a' = 1
rel: a' a = 1
rel: b b' = 1
rel: b' b = 1
"""

Z3_TABLE = {"n": 3, "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}


@pytest.fixture
def quad(tmp_path):
    path = tmp_path / "quad.pres"
    path.write_text(QUAD_TEXT)
    return str(path)


@pytest.fixture
def z3(tmp_path):
    path = tmp_path / "z3.json"
    path.write_text(json.dumps(Z3_TABLE))
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# -- happy paths --------------------------------------------------------------

def test_laws_group_table(z3, capsys):
    code, rep = run_json(capsys, ["laws", z3])
    assert code == EXIT_OK
    assert rep["associative"] is True
    laws = rep["laws"]
    assert laws["left_unique"] and laws["right_unique"]
    assert laws["left_solvable"] and laws["right_solvable"]


def test_malcev_verb(z3, capsys):
    code, rep = run_json(capsys, ["malcev", z3])
    assert code == EXIT_OK
    assert rep["holds"] is True and rep["violations"] == []


def test_kb_verb(quad, capsys):
    code, rep = run_json(capsys, ["kb", quad])
    assert code == EXIT_OK
    assert rep["status"] == "confluent"
    assert {(r["lhs"], r["rhs"]) for r in rep["rules"]} == \
        {("y b", "x a"), ("y d", "x c"), ("v b", "u a")}


def test_probe_collision_exits_zero(quad, capsys):
    code, rep = run_json(capsys, ["probe", quad, "--max-len", "2"])
    assert code == EXIT_OK
    assert rep["status"] == "collision"
    assert rep["witnesses"][0]["u"] == "u c"
    assert rep["witnesses"][0]["v"] == "v d"


def test_build_gm_verb(quad, capsys):
    code, rep = run_json(capsys, ["build-gm", quad])
    assert code == EXIT_OK
    assert len(rep["extension"]["letters"]) == 16
    assert len(rep["extension"]["relations"]) == 22
    assert rep["extension"]["kind"] == "group-completion"


def test_rank1_verb(capsys):
    code, rep = run_json(capsys, ["rank1", "--n", "2", "--p", "3"])
    assert code == EXIT_OK
    assert rep["element_count"] == 33
    assert all(g["order"] == 2 for g in rep["groups"])


def test_enumerate_verb(capsys):
    code, rep = run_json(capsys, ["enumerate", "--order", "2", "--tables"])
    assert code == EXIT_OK
    assert rep["count"] == 8 and len(rep["tables"]) == 8


def test_out_writes_file_and_summary(quad, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["probe", quad, "--max-len", "2", "--out", str(out)])
    assert code == EXIT_OK
    text = capsys.readouterr().out
    assert "collision" in text and "u c" in text
    rep = json.loads(out.read_text())
    assert rep["status"] == "collision"


# -- exit code 3: budgets -------------------------------------------------------

def test_kb_budget_exhaustion_exit3(tmp_path, capsys):
    path = tmp_path / "freegrp.pres"
    path.write_text(FREEGRP2_TEXT)
    code, rep = run_json(capsys, ["kb", str(path), "--max-rules", "1"])
    assert code == EXIT_BUDGET
    assert rep["status"] == "budget-exhausted"
    assert rep["rule_count"] >= 1          # partial report still written


def test_kb_names_the_budget_hit(tmp_path, quad, capsys):
    path = tmp_path / "b3.pres"
    path.write_text("letters: a b\nrel: a b a = b a b\n")
    code, rep = run_json(capsys, ["kb", str(path)])
    assert code == EXIT_BUDGET and rep["budget_hit"] == "max_rule_len"
    code, rep = run_json(capsys, ["kb", str(path), "--max-rules", "5"])
    assert code == EXIT_BUDGET and rep["budget_hit"] == "max_rules"
    code, rep = run_json(capsys, ["kb", quad])
    assert code == EXIT_OK and rep["budget_hit"] is None


def test_probe_fallback_budget_exit3(tmp_path, capsys):
    path = tmp_path / "free2.pres"
    path.write_text("letters: a b\n")
    code, rep = run_json(capsys, ["probe", str(path), "--max-len", "3",
                                  "--max-rules", "1", "--budget", "1000"])
    assert code == EXIT_BUDGET
    assert rep["status"] == "inconclusive"
    assert rep["budget_spent"]["words_visited"] <= 1000
    assert rep["inconclusive_count"] == 105


def test_probe_base_budget_exit3(tmp_path, capsys):
    path = tmp_path / "freegrp.pres"
    path.write_text(FREEGRP2_TEXT)
    code, rep = run_json(capsys, ["probe", str(path), "--max-rules", "1"])
    assert code == EXIT_BUDGET
    assert rep["status"] == "budget-exhausted"
    assert rep["stage"] == "base-completion"


# -- exit code 2: input errors ----------------------------------------------------

def test_missing_file_exit2(capsys):
    assert main(["kb", "/nonexistent/x.pres"]) == EXIT_INPUT
    assert "x.pres" in capsys.readouterr().err


def test_parse_error_names_line(tmp_path, capsys):
    path = tmp_path / "bad.pres"
    path.write_text("letters: a b\nrel: a c = b\n")
    assert main(["kb", str(path)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "line 2" in err and "c" in err


def test_non_associative_table_exit2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "table": [[1, 0], [0, 0]]}))
    for verb in ("laws", "malcev"):
        assert main([verb, str(path)]) == EXIT_INPUT
        assert capsys.readouterr().err == \
            f"error: {path}: not associative: (0 0) 1 != 0 (0 1)\n"
    path.write_text("not json")
    assert main(["laws", str(path)]) == EXIT_INPUT


def test_bad_params_exit2(capsys):
    assert main(["rank1", "--n", "3", "--p", "5"]) == EXIT_INPUT
    assert main(["rank1", "--n", "2", "--p", "6"]) == EXIT_INPUT
    assert main(["enumerate", "--order", "9"]) == EXIT_INPUT
    assert main(["no-such-verb"]) == EXIT_INPUT
    capsys.readouterr()


def test_rank1_cell_bound_exit2(capsys):
    # 19,495 elements fit the raised cap but not the table's cell bound,
    # which is checked before any element is built
    start = time.perf_counter()
    assert main(["rank1", "--n", "3", "--p", "7", "--cap", "100000"]) \
        == EXIT_INPUT
    assert time.perf_counter() - start < 0.5
    assert "cells" in capsys.readouterr().err


def test_probe_rejects_extension_input(tmp_path, capsys):
    path = tmp_path / "ext.pres"
    path.write_text("letters: a a'\nkind: group-completion\n"
                    "rel: a a' = 1\nrel: a' a = 1\n")
    assert main(["probe", str(path)]) == EXIT_INPUT
    capsys.readouterr()


# -- determinism ------------------------------------------------------------------

def test_reports_byte_identical(quad, z3, tmp_path):
    for argv in (["probe", quad, "--max-len", "3"],
                 ["kb", quad],
                 ["laws", z3],
                 ["rank1", "--n", "2", "--p", "5"]):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(argv + ["--out", str(a)]) == EXIT_OK
        assert main(argv + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()


# sha256 of the stdout report; "@" names a file under inputs/, and
# "@rank1-N-P" the table of rank1_universe(N, P)
GOLDEN_REPORTS = {
    ("probe", "@quadruple.pres", "--max-len", "3"):
        "1febef77f160720a43df3daa947d5d7c6e02a1109f8cdfe2f312cad4abfce188",
    ("probe", "@quadruple.pres", "--max-len", "4"):
        "268dafeb8535f96d07ff96cddc99d1af3df6856a129c881ac5b8c4ab67167bc8",
    ("laws", "@z3.json"):
        "915479097bbdef2531f317db014da41b8b65757827a6efaa8ce03a6d72c21541",
    ("laws", "@left-zero-2.json"):
        "5e095a61ba585c0d625df704cbb5cfb67406061d19fb9bc686a853776a600b9b",
    ("malcev", "@z3.json"):
        "bf774ca0ac834a8350f55fffa2e79adff40a452ada70d7f16deb68771a7ed72a",
    ("malcev", "@left-zero-2.json"):
        "f92f8ff72c52c3f6b1979e6ddcef40c4be54d7e6c60617daaebd1e1d94586a50",
    ("malcev", "@rank1-1-5"):
        "9ea0da839490df154e5ce9e4677f9b4ed4867cdf8b2b07c230a2cc9dfd0b786b",
    ("rank1", "--n", "2", "--p", "3"):
        "e84c1bf7dc7c9639a8639ca5eeb3bdb36bbb75395bcdcec403acbb25a4d3dc18",
    # the heavy reports: large int-row tables, records and a 23 MB list
    ("rank1", "--n", "3", "--p", "3"):
        "859f18517aca31837d05f51d297468c3d574ee30edfffcc8891a6be03b6efaba",
    ("enumerate", "--order", "4", "--tables"):
        "d1ad72b8a6e924843237d922c25fe3d101a1a395e45dc87ceefa368755378df2",
    ("kb", "@quadruple.pres"):
        "c64bfcac65cd7c01933a23da6c1220c69770687b8fb5789e712f75c1a51ff876",
    ("build-gm", "@quadruple.pres"):
        "ceb4db4ba4ab3c3d4e61051a108e252bf26b7a263deb2fbc855ecfddd60b5201",
    ("malcev", "@rank1-1-11"):
        "7fe93bd28b8f1c81ee24e9d66d3431b498f5f0f4dc7b70e1e2e10e96db265d8d",
}


def test_reports_match_golden_digests(tmp_path, capsys):
    paths = {f"@{f.name}": str(f) for f in INPUTS.iterdir()}
    for n, p in ((1, 5), (1, 11)):
        path = tmp_path / f"rank1-{n}-{p}.json"
        path.write_text(json.dumps(rank1_universe(n, p).table.to_json()))
        paths[f"@rank1-{n}-{p}"] = str(path)
    for argv, digest in GOLDEN_REPORTS.items():
        assert main([paths.get(a, a) for a in argv]) == EXIT_OK
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_out_writes_stdout_bytes(quad, z3, tmp_path, capsys):
    out = tmp_path / "report.json"
    for argv in (["probe", quad, "--max-len", "3"], ["laws", z3],
                 ["rank1", "--n", "2", "--p", "3"]):
        assert main(argv) == EXIT_OK
        stdout = capsys.readouterr().out
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        assert out.read_bytes() == stdout.encode()


def test_console_entry_point(quad):
    proc = subprocess.run([sys.executable, "-m", "semilab", "kb", quad],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["status"] == "confluent"
