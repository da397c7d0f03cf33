"""The benchmark's workloads: fixed inputs, CLI op lists and known answers.

Inputs are fixed because their known answers are the correctness oracle;
the seed only shuffles op order.  Checks read answer fields of the JSON
report (status, counts, witness pairs, digests of rule lists and tables),
never whole-report bytes, so fields added to a report later do not break
them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path



def _coxeter_a(n: int) -> str:
    """Coxeter presentation of the symmetric group S_{n+1} (type A_n)."""
    gens = [f"s{i}" for i in range(1, n + 1)]
    rels = [f"rel: {g} {g} = 1" for g in gens]
    for i in range(n):
        for j in range(i + 1, n):
            if j == i + 1:
                rels.append(f"rel: {gens[i]} {gens[j]} {gens[i]} = "
                            f"{gens[j]} {gens[i]} {gens[j]}")
            else:
                rels.append(f"rel: {gens[j]} {gens[i]} = {gens[i]} {gens[j]}")
    return "letters: " + " ".join(gens) + "\n" + "\n".join(rels) + "\n"


_B3 = "letters: a b\nrel: a b a = b a b\n"

TEXT_INPUTS = {
    "quadruple.pres": ("letters: x y a b c d u v\n"
                       "rel: x a = y b\nrel: x c = y d\nrel: u a = v b\n"),
    "trace-abcd.pres": "letters: a b c d\nrel: b a = a b\nrel: d c = c d\n",
    "free-abc.pres": "letters: a b c\n",
    "b3.pres": _B3,
    "b4.pres": ("letters: a b c\n"
                "rel: a b a = b a b\nrel: b c b = c b c\nrel: c a = a c\n"),
    "s9.pres": _coxeter_a(8),
    "z20.json": json.dumps({"n": 20, "table": [[(i + j) % 20
                                                for j in range(20)]
                                               for i in range(20)]}),
}


def write_inputs(directory: Path) -> dict:
    """Write every input file into ``directory``; returns name -> sha256."""
    from semilab.presentations import (build_gm, format_presentation,
                                       parse_presentation_text)
    from semilab.rank1 import rank1_universe

    texts = dict(TEXT_INPUTS)
    texts["gb3.pres"] = format_presentation(
        build_gm(parse_presentation_text(_B3)))
    for n, p in ((2, 5), (1, 11)):
        texts[f"rank1-{n}-{p}.json"] = json.dumps(
            rank1_universe(n, p).table.to_json())
    directory.mkdir(parents=True, exist_ok=True)
    digests = {}
    for name, text in sorted(texts.items()):
        (directory / name).write_text(text, encoding="utf-8")
        digests[name] = hashlib.sha256(text.encode()).hexdigest()
    return digests


def digest(obj) -> str:
    """Short digest of a JSON value, independent of key order."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _field(report, key, expected, problems):
    if report.get(key) != expected:
        problems.append(f"{key}: {report.get(key)!r} != {expected!r}")


@dataclass(frozen=True)
class Op:
    """One CLI invocation.  An ``@name`` argument is an input file; ``check``
    returns the problems found in its exit code and report (none: correct)."""

    argv: tuple
    exit_code: int
    answers: dict

    @property
    def label(self) -> str:
        return " ".join(a.lstrip("@") for a in self.argv)

    def resolve(self, input_dir: str) -> list:
        return [f"{input_dir}/{a[1:]}" if a.startswith("@") else a
                for a in self.argv]

    def check(self, exit_code: int, output: str, input_dir: str) -> list:
        if exit_code != self.exit_code:
            return [f"exit code {exit_code}, expected {self.exit_code}"]
        try:
            report = json.loads(output)
        except json.JSONDecodeError as exc:
            return [f"report is not JSON: {exc}"]
        problems = []
        verb = self.argv[0]
        try:
            _field(report, "verb", verb, problems)
            if not problems:
                CHECKS[verb](report, self.answers, self, input_dir, problems)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            problems.append(f"malformed report: {exc!r}")
        return problems


# -- known-answer checks, one per verb -------------------------------------


def replay_witnesses(report: dict) -> list:
    """Re-apply each witness's derivation from u over the report's own
    extension presentation; the chain must end at v."""
    from semilab.presentations import PresentationError, parse_presentation_text
    from semilab.rewriting import (DerivationStep, RewritingError,
                                   apply_derivation_step)

    ext = report["extension_presentation"]
    text = ("letters: " + " ".join(ext["letters"]) + "\n"
            + f"kind: {ext['kind']}\n"
            + "".join(f"rel: {lhs} = {rhs}\n" for lhs, rhs in ext["relations"]))
    problems = []
    try:
        gm = parse_presentation_text(text)
    except PresentationError as exc:
        return [f"extension presentation does not parse: {exc}"]
    for w in report["witnesses"]:
        pair = f"witness {w['u']!r} = {w['v']!r}"
        if "derivation" not in w:
            problems.append(f"{pair}: no derivation")
            continue
        try:
            word = gm.word(w["u"])
            for s in w["derivation"]:
                word = apply_derivation_step(
                    gm, word, DerivationStep(s["relation"], s["position"],
                                             s["forward"]))
            ok = word == gm.word(w["v"])
        except (PresentationError, RewritingError, IndexError, KeyError):
            ok = False
        if not ok:
            problems.append(f"{pair}: derivation does not replay")
    return problems


def _check_probe(report, ans, op, input_dir, problems):
    _field(report, "status", ans["status"], problems)
    _field(report, "element_count", ans["elements"], problems)
    pairs = [[w["u"], w["v"]] for w in report.get("witnesses", [])]
    if len(pairs) != ans["witnesses"] or digest(pairs) != ans["pairs"]:
        problems.append(f"witness pairs differ ({len(pairs)} found)")
    elif pairs:
        problems.extend(replay_witnesses(report))


def _check_kb(report, ans, op, input_dir, problems):
    _field(report, "status", ans["status"], problems)
    _field(report, "rule_count", ans["rules"], problems)
    rules = [[r["lhs"], r["rhs"]] for r in report.get("rules", [])]
    if digest(rules) != ans["digest"]:
        problems.append("rule list differs")


def _check_enumerate(report, ans, op, input_dir, problems):
    _field(report, "count", ans["count"], problems)
    if digest(sorted(report.get("tables", []))) != ans["digest"]:
        problems.append("table list differs")


def _check_rank1(report, ans, op, input_dir, problems):
    _field(report, "element_count", ans["elements"], problems)
    _field(report, "idempotent_count", ans["idempotents"], problems)
    orders = sorted(g["order"] for g in report.get("groups", []))
    if orders != ans["group_orders"]:
        problems.append("maximal subgroups differ")
    if digest(report.get("table")) != ans["digest"]:
        problems.append("multiplication table differs")


def _check_laws(report, ans, op, input_dir, problems):
    _field(report, "associative", True, problems)
    laws = report.get("laws", {})
    for key, value in ans["laws"].items():
        _field(laws, key, value, problems)
    counts = [laws.get("left_unlimited"), laws.get("right_unlimited")]
    if digest(counts) != ans["digest"]:
        problems.append("solution-count matrices differ")


def _check_malcev(report, ans, op, input_dir, problems):
    _field(report, "systems_checked", ans["systems"], problems)
    _field(report, "holds", ans["violations"] == 0, problems)
    violations = report.get("violations", [])
    if len(violations) != ans["violations"]:
        problems.append(f"{len(violations)} violations, expected "
                        f"{ans['violations']}")
        return
    # every reported tuple must really violate the condition, once
    table_file = Path(input_dir) / op.argv[1][1:]
    rows = json.loads(table_file.read_text(encoding="utf-8"))["table"]
    for a, b, c, d, u, v, x, y in violations:
        if not (rows[x][a] == rows[y][b] and rows[x][c] == rows[y][d]
                and rows[u][a] == rows[v][b] and rows[u][c] != rows[v][d]):
            problems.append(f"not a violation: {[a, b, c, d, u, v, x, y]}")
            return
    if len(set(map(tuple, violations))) != len(violations):
        problems.append("duplicate violations")


CHECKS = {"probe": _check_probe, "kb": _check_kb,
          "enumerate": _check_enumerate, "rank1": _check_rank1,
          "laws": _check_laws, "malcev": _check_malcev}


def _probe(pres, max_len, status, elements, witnesses, pairs):
    return Op(("probe", pres, "--max-len", str(max_len)), 0,
              {"status": status, "elements": elements,
               "witnesses": witnesses, "pairs": pairs})


def _kb(pres, extra, status, rules, rules_digest):
    return Op(("kb", pres) + extra, 0 if status == "confluent" else 3,
              {"status": status, "rules": rules, "digest": rules_digest})


_NO_PAIRS = digest([])

# Each workload stresses different layers; see BENCHMARK.json for why.
WORKLOADS = {
    # the paper's refutation: nearly all time is the certificate search
    "probe-collide": [
        _probe("@quadruple.pres", 3, "collision", 534, 17, "eafd86ac81c822bb"),
    ],
    # normal-form enumeration and G(M) bucketing with no certificate search
    "probe-embed": [
        _probe("@trace-abcd.pres", 8, "no-collision-found", 31519, 0,
               _NO_PAIRS),
        _probe("@free-abc.pres", 8, "no-collision-found", 9841, 0, _NO_PAIRS),
    ],
    # completion alone: rule sets that grow to the budget and that close
    "complete": [
        _kb("@b3.pres", (), "budget-exhausted", 47, "cc540f9154b49638"),
        _kb("@b4.pres", (), "budget-exhausted", 398, "24a69be50e378c84"),
        _kb("@gb3.pres", ("--max-rules", "300"), "budget-exhausted", 215,
            "b9511026cd29f2bc"),
        _kb("@s9.pres", (), "confluent", 57, "71631e0b5fea899c"),
        _kb("@quadruple.pres", (), "confluent", 3, "b08d89b51d11f028"),
    ],
    # finite tables and rank-1 tabulation; no rewriting
    "tables": [
        Op(("enumerate", "--order", "4", "--tables"), 0,
           {"count": 3492, "digest": "6c9da4a92a302853"}),
        Op(("rank1", "--n", "3", "--p", "3"), 0,
           {"elements": 339, "idempotents": 118, "group_orders": [2] * 117,
            "digest": "b027c3172b0b4f9c"}),
        Op(("laws", "@rank1-2-5.json"), 0,
           {"laws": {"left_unique": False, "right_unique": False,
                     "left_solvable": False, "right_solvable": False},
            "digest": "4d7cbd9951de216c"}),
        Op(("malcev", "@z20.json"), 0,
           {"systems": 3_200_000, "violations": 0}),
        Op(("malcev", "@rank1-1-11.json"), 0,
           {"systems": 479_281, "violations": 277_200}),
    ],
}

# Address-space cap (RLIMIT_AS) of a workload's worker.  The malcev scan
# keeps every violation, so its memory grows with their number (about 300 MiB
# for the 11-element rank1_universe(1, 11) table); the cap keeps a regression
# there from taking the machine's memory with it.
CAPS_MIB = {"tables": 1536}
