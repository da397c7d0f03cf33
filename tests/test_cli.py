import argparse
import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from semilab.cli import (EXIT_BUDGET, EXIT_INPUT, EXIT_OK, _build_parser,
                         main)
from semilab.finite import (CayleyTable, _full_associativity_scan,
                            _generators)
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


# stdout of each verb with --out, its summary lines byte for byte; "@"
# names a file under inputs/ or, for @rank1-1-5, the table of
# rank1_universe(1, 5)
OUT_SUMMARIES = (
    (["laws", "@z3.json"], EXIT_OK,
     "order 3, associative\n"
     "left_unique: True   right_unique: True\n"
     "left_solvable: True   right_solvable: True\n"),
    (["laws", "@left-zero-2.json"], EXIT_OK,
     "order 2, associative\n"
     "left_unique: True   right_unique: False\n"
     "left_solvable: True   right_solvable: False\n"),
    (["build-gm", "@quadruple.pres"], EXIT_OK,
     "letters: 16   relations: 22\n"),
    (["kb", "@quadruple.pres"], EXIT_OK, "status: confluent   rules: 3\n"),
    (["kb", "@free-group-rank2.pres", "--max-rules", "1"], EXIT_BUDGET,
     "status: budget-exhausted   rules: 1\n"),
    (["probe", "@quadruple.pres", "--max-len", "2"], EXIT_OK,
     "status: collision   elements: 70   witnesses: 1\n"
     "first witness: u c  and  v d collapse in the extension\n"),
    (["probe", "@trace-abcd.pres", "--max-len", "3"], EXIT_OK,
     "status: no-collision-found   elements: 67   witnesses: 0\n"),
    (["probe", "@freegrp.pres", "--max-rules", "1"], EXIT_BUDGET,
     "status: budget-exhausted (completion of the base monoid exhausted its "
     "budget, so its elements cannot be enumerated)\n"),
    (["malcev", "@z3.json"], EXIT_OK, "holds: True   systems checked: 243\n"),
    (["malcev", "@rank1-1-5"], EXIT_OK,
     "holds: False   systems checked: 9025\n"
     "violations: 4320   first: (0, 0, 0, 1, 0, 1, 0, 0)\n"),
    (["rank1", "--n", "2", "--p", "3"], EXIT_OK,
     "elements: 33   idempotents: 13   groups: 12 of order [2]\n"),
    (["enumerate", "--order", "2"], EXIT_OK,
     "order 2: 8 associative tables\n"),
)


def test_out_writes_file_and_summary(tmp_path, capsys):
    paths = {f"@{f.name}": str(f) for f in INPUTS.iterdir()}
    paths["@freegrp.pres"] = str(tmp_path / "freegrp.pres")
    (tmp_path / "freegrp.pres").write_text(FREEGRP2_TEXT)
    paths["@rank1-1-5"] = str(tmp_path / "rank1-1-5.json")
    (tmp_path / "rank1-1-5.json").write_text(
        json.dumps(rank1_universe(1, 5).table.to_json()))
    out = tmp_path / "report.json"
    for argv, code, summary in OUT_SUMMARIES:
        argv = [paths.get(a, a) for a in argv]
        assert main(argv + ["--out", str(out)]) == code, argv
        assert capsys.readouterr().out == summary, argv
        assert json.loads(out.read_text())["verb"] == argv[0]


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


def test_probe_negative_budget_exit2(quad, capsys):
    assert main(["probe", quad, "--budget", "-1"]) == EXIT_INPUT
    assert capsys.readouterr().err == \
        f"error: {quad}: probe budget must not be negative\n"


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


def test_non_associative_table_names_a_y_outside_the_generators(tmp_path,
                                                                capsys):
    # Z4 with 3 * 0 changed to 0: the generating set is {0, 1}, and the
    # first failing triple is (1 2) 0 = 3 0 = 0 against 1 (2 0) = 1 2 = 3,
    # so the line names the triple of the full scan, not one at a generator
    rows = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    rows[3][0] = 0
    t = CayleyTable(tuple(map(tuple, rows)))
    assert _generators(t.rows) == [0, 1]
    assert _full_associativity_scan(t) == (1, 2, 0)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 4, "table": rows}))
    for verb in ("laws", "malcev"):
        assert main([verb, str(path)]) == EXIT_INPUT
        assert capsys.readouterr().err == \
            f"error: {path}: not associative: (1 2) 0 != 1 (2 0)\n"


def test_bad_params_exit2(tmp_path, capsys):
    files = {"bad.json": "not json", "no-table.json": '{"n": 2}',
             "int-table.json": '{"n": 2, "table": 5}',
             "flat.json": '{"n": 2, "table": [1, 2]}',
             "null-row.json": '{"n": 1, "table": [null]}',
             # bool is an int subclass in Python, but not a table entry
             "bool-entries.json":
                 '{"n": 2, "table": [[false, true], [true, false]]}',
             "bool-n.json": '{"n": true, "table": [[0]]}',
             "bad.pres": "letters: a b\nrel: a c = b\n",
             "barred.pres": "letters: a a'\nrel: a a' = 1\n",
             "ext.pres": "letters: a a'\nkind: group-completion\n"
                         "rel: a a' = 1\nrel: a' a = 1\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    # a UTF-16 byte order mark: no UTF-8 text starts with byte 0xff
    (tmp_path / "utf16.txt").write_bytes(b"\xff\xfea\x00")
    f = {name: str(tmp_path / name)
         for name in [*files, "utf16.txt", "missing.pres", "missing.json",
                      "no-dir/out.json"]}
    quad = str(INPUTS / "quadruple.pres")
    for argv, err in (
            (["kb", f["missing.pres"]],
             f"error: {f['missing.pres']}: No such file or directory\n"),
            (["laws", f["missing.json"]],
             f"error: {f['missing.json']}: No such file or directory\n"),
            (["kb", f["utf16.txt"]],
             f"error: {f['utf16.txt']}: not valid UTF-8: invalid start "
             "byte\n"),
            (["laws", f["utf16.txt"]],
             f"error: {f['utf16.txt']}: not valid UTF-8: invalid start "
             "byte\n"),
            (["laws", str(INPUTS / "z3.json"), "--out", f["no-dir/out.json"]],
             f"error: {f['no-dir/out.json']}: No such file or directory\n"),
            (["laws", f["bad.json"]],
             f"error: {f['bad.json']}: not valid JSON: Expecting value: "
             "line 1 column 1 (char 0)\n"),
            (["malcev", f["no-table.json"]],
             f"error: {f['no-table.json']}: table JSON needs fields \"n\" "
             "and \"table\"\n"),
            (["laws", f["int-table.json"]],
             f"error: {f['int-table.json']}: \"table\" must be a list of "
             "lists\n"),
            (["malcev", f["flat.json"]],
             f"error: {f['flat.json']}: \"table\" must be a list of lists\n"),
            (["laws", f["null-row.json"]],
             f"error: {f['null-row.json']}: \"table\" must be a list of "
             "lists\n"),
            (["malcev", f["bool-entries.json"]],
             f"error: {f['bool-entries.json']}: entry False is not an int "
             "in [0, 2)\n"),
            (["laws", f["bool-n.json"]],
             f"error: {f['bool-n.json']}: \"n\" is True, but \"table\" has "
             "1 rows\n"),
            (["kb", f["bad.pres"]],
             f"error: {f['bad.pres']}: line 2: unknown letter 'c'\n"),
            (["build-gm", f["barred.pres"]],
             f"error: {f['barred.pres']}: bar_copy input already contains "
             "barred letters\n"),
            (["build-gm", f["ext.pres"]],
             f"error: {f['ext.pres']}: bar_copy requires a plain-monoid "
             "presentation\n"),
            (["probe", f["barred.pres"]],
             f"error: {f['barred.pres']}: bar_copy input already contains "
             "barred letters\n"),
            (["probe", f["ext.pres"]],
             f"error: {f['ext.pres']}: probe expects a plain monoid "
             "presentation, not an already-extended one\n"),
            (["probe", quad, "--max-len", "0"],
             f"error: {quad}: probe length must be at least 1\n"),
            # completion's own budget check names no file
            (["kb", quad, "--max-rules", "0"],
             "error: completion budgets must be positive\n"),
            (["probe", quad, "--max-rule-len", "0"],
             "error: completion budgets must be positive\n"),
            (["rank1", "--n", "0", "--p", "3"],
             "error: dimension must be at least 1\n"),
            (["rank1", "--n", "3", "--p", "5"],
             "error: 3844 nonzero rank-1 matrices over GF(5)^{3x3} exceeds "
             "the cap of 512\n"),
            (["rank1", "--n", "2", "--p", "6"], "error: 6 is not prime\n"),
            (["enumerate", "--order", "9"],
             "error: enumerate_semigroups supports orders 1 to 4 only\n")):
        assert main(argv) == EXIT_INPUT, argv
        assert capsys.readouterr().err == err, argv
    assert main(["no-such-verb"]) == EXIT_INPUT
    capsys.readouterr()


def malcev_capped(table, limit=128 * 2**20):
    """``semilab malcev table`` in a subprocess whose address space is
    capped at ``limit`` bytes (RLIMIT_AS)."""
    resource = pytest.importorskip("resource")

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    return subprocess.run([sys.executable, "-m", "semilab", "malcev",
                           str(table)], capture_output=True, text=True,
                          preexec_fn=cap_memory, timeout=60)


def test_malcev_listing_too_large_exit2(tmp_path):
    # rank1_universe(1, 23) has 12,022,560 violations, about 1 GB of report:
    # the count refuses it before a byte is written, well inside a 128 MiB
    # address-space cap (RLIMIT_AS) that listing them would overrun
    table = tmp_path / "rank1-1-23.json"
    table.write_text(json.dumps(rank1_universe(1, 23).table.to_json()))
    proc = malcev_capped(table)
    assert proc.returncode == EXIT_INPUT
    assert proc.stdout == ""
    assert proc.stderr == (
        f"error: {table}: 12022560 violations of the quadruple condition, "
        "more than the 10000000 a report may list\n")


def test_malcev_33_element_table_refused_exit2():
    # rank1_universe(2, 3): 1,604,427,264 violations, counted on bitmasks
    # in a fraction of a second and well inside a 128 MiB cap
    table = INPUTS / "rank1-2-3.json"
    proc = malcev_capped(table)
    assert proc.returncode == EXIT_INPUT
    assert proc.stdout == ""
    assert proc.stderr == (
        f"error: {table}: 1604427264 violations of the quadruple condition, "
        "more than the 10000000 a report may list\n")


def test_rank1_cell_bound_exit2(capsys):
    # 19,494 nonzero matrices are over the bound, which is checked before
    # any matrix is built
    start = time.perf_counter()
    assert main(["rank1", "--n", "3", "--p", "7"]) == EXIT_INPUT
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr().err == (
        "error: 19494 nonzero rank-1 matrices over GF(7)^{3x3} exceeds the "
        "cap of 512\n")


@pytest.mark.parametrize("n", ["10000", "3000000"])
def test_rank1_huge_dimension_exit2(capsys, n):
    # the count has more digits than an int may print, so it is refused
    # without being computed or named
    assert main(["rank1", "--n", n, "--p", "2"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: the count of nonzero rank-1 matrices over GF(2)^{{{n}x{n}}} "
        "exceeds the cap of 512\n")


def test_probe_rejects_extension_input(tmp_path, capsys):
    path = tmp_path / "ext.pres"
    path.write_text("letters: a a'\nkind: group-completion\n"
                    "rel: a a' = 1\nrel: a' a = 1\n")
    assert main(["probe", str(path)]) == EXIT_INPUT
    capsys.readouterr()


# -- options -----------------------------------------------------------------------

# every verb's option strings and positionals, so that no option is added
# or dropped unnoticed
VERB_OPTIONS = {
    "laws": {"-h", "--help", "table", "--out"},
    "build-gm": {"-h", "--help", "presentation", "--out"},
    "kb": {"-h", "--help", "presentation", "--max-rules", "--max-rule-len",
           "--out"},
    "probe": {"-h", "--help", "presentation", "--max-len", "--budget",
              "--max-rules", "--max-rule-len", "--out"},
    "malcev": {"-h", "--help", "table", "--out"},
    "rank1": {"-h", "--help", "--n", "--p", "--out"},
    "enumerate": {"-h", "--help", "--order", "--tables", "--out"},
}


def test_verb_option_sets():
    parser = _build_parser()
    verbs, = (a.choices for a in parser._actions
              if isinstance(a, argparse._SubParsersAction))
    assert {verb: {s for a in sp._actions for s in a.option_strings or
                   [a.dest]} for verb, sp in verbs.items()} == VERB_OPTIONS


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
    # no collision: the benchmark's probe-embed reports, counts included
    ("probe", "@trace-abcd.pres", "--max-len", "8"):
        "ffa150315af4276e70660cb292c0a580b92a1dd9e1c8f989ed3345a653001ba0",
    ("probe", "@free-abc.pres", "--max-len", "8"):
        "77cd6e125a75fcf5afc7ddc9133ad9cc84284f6f2807111422b47c6f8161b07f",
    # G(M) budget-exhausted, yet its rules collapse 19 pairs
    ("probe", "@quadruple-e.pres", "--max-len", "3"):
        "a9f7a220272527adfc77941d1941780fee21a86c13fc9935320f4e8ab00ae27e",
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
    rank1_1_5 = tmp_path / "rank1-1-5.json"
    rank1_1_5.write_text(json.dumps(rank1_universe(1, 5).table.to_json()))
    for argv in (["probe", quad, "--max-len", "3"], ["laws", z3],
                 ["rank1", "--n", "2", "--p", "3"],
                 ["malcev", str(rank1_1_5)]):
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
