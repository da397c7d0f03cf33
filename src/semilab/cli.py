"""Batch command line for the workbench.

Verbs:
  laws       four reversibility laws on a finite table (JSON file in)
  build-gm   group extension of a presented monoid
  kb         shortlex completion of a presentation, rules out
  probe      equality in M versus equality in G(M), with witnesses
  malcev     quadruple condition scan on a finite table
  rank1      the full rank <= 1 matrix semigroup over GF(p)
  enumerate  all associative tables of a given order

Every verb emits one deterministic JSON report: to stdout, or to --out with
a short summary on stdout instead.  The report bytes are exactly those of
``json.dumps(report, indent=2, sort_keys=True)`` plus a newline; ``_encode``
writes them with the joins done in C.  Exit codes: 0 the analysis completed
(finding a collision or a law failure is a completed analysis), 2 bad input
or parameters, 3 a search budget ran out before the answer was settled (a
partial report is still written).
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii as _encode_str
from operator import itemgetter

from .embedding import ProbeError, check_malcev_condition, probe_embedding
from .fields import FieldError
from .finite import (CayleyTable, TableError, associativity_failure,
                     check_laws, enumerate_semigroups)
from .presentations import (PresentationError, build_gm, format_presentation,
                            parse_presentation_file, presentation_to_json)
from .rank1 import MatrixError, rank1_universe
from .rewriting import (CONFLUENT, DEFAULT_EQ_BUDGET, DEFAULT_MAX_RULES,
                        DEFAULT_MAX_RULE_LEN, RewritingError, kb_complete)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3


class _InputError(Exception):
    """Anything wrong with what the user handed us; exits 2."""


def _load_table(path: str) -> CayleyTable:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise _InputError(f"{path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise _InputError(f"{path}: not valid JSON: {exc}") from None
    try:
        return CayleyTable.from_json(obj)
    except TableError as exc:
        raise _InputError(f"{path}: {exc}") from None


def _load_presentation(path: str):
    try:
        return parse_presentation_file(path)
    except OSError as exc:
        raise _InputError(f"{path}: {exc.strerror or exc}") from None
    except PresentationError as exc:    # ParseError is one
        raise _InputError(f"{path}: {exc}") from None


# exact type -> encoder for the scalars json writes without a fallback;
# bool is its own type, so an int path never prints a bool as a number
_SCALARS = {str: _encode_str, int: int.__repr__,
            bool: {True: "true", False: "false"}.__getitem__,
            type(None): lambda _: "null"}
# a list is joined this many items at a time, so a long one never has all
# its item strings alive next to the joined text
_SLICE = 4096


def _encode(obj, indent: str = "") -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte, with
    ``indent`` the indentation of the line ``obj`` starts on.  With indent
    set the json module runs its pure-Python encoder; here lists of scalars,
    of equal-length int rows and of same-key records are joined in C, and
    json.dumps is called only for what has no exact-type path (floats, int
    keys, subclasses)."""
    kind = type(obj)
    scalar = _SCALARS.get(kind)
    if scalar is not None:
        return scalar(obj)
    inner = indent + "  "
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        sep = ",\n" + inner
        return _block([sep.join(_encode_each(obj[i:i + _SLICE], inner))
                       for i in range(0, len(obj), _SLICE)], indent, "[]")
    if kind is dict and set(map(type, obj)) == {str}:
        keys = sorted(obj)
        return _block([_encode(obj[k], inner) for k in keys], indent, "{}",
                      keys)
    # json.dumps escapes newlines inside strings, so every raw newline
    # starts a line that needs the outer indentation
    text = json.dumps(obj, indent=2, sort_keys=True)
    return text.replace("\n", "\n" + indent)


def _block(items, indent: str, brackets: str, keys=None) -> str:
    """A nonempty JSON array, or object with ``keys``, whose encoded
    ``items`` go one per line, indented one step past ``indent``.  It is
    one join over all the parts, so no item's text is copied twice."""
    inner = indent + "  "
    heads = [",\n" + inner] * len(items)
    heads[0] = brackets[0] + "\n" + inner
    if keys is not None:
        heads = [h + _encode_str(k) + ": " for h, k in zip(heads, keys)]
    parts = heads * 2
    parts[0::2] = heads
    parts[1::2] = items
    parts.append("\n" + indent + brackets[1])
    return "".join(parts)


def _encode_each(values, indent: str):
    """The encodings of ``values``, each starting on a line indented by
    ``indent``: one C-side map when they share a fast path."""
    kinds = set(map(type, values))
    if len(kinds) == 1:
        kind = kinds.pop()
        if kind in _SCALARS:
            return map(_SCALARS[kind], values)
        if kind is list or kind is tuple:
            # equal-length int rows: one %d template for the whole list
            widths = set(map(len, values))
            if (len(widths) == 1
                    and set(map(type, chain.from_iterable(values))) == {int}):
                row = _block(["%d"] * widths.pop(), indent, "[]")
                return map(row.__mod__, map(tuple, values))
        elif kind is dict:
            # records with the same str keys: one %s template, filled
            # column by column
            keysets = set(map(frozenset, values))
            keys = keysets.pop() if len(keysets) == 1 else None
            if keys and set(map(type, keys)) == {str}:
                keys = sorted(keys)
                record = _block(["%s"] * len(keys), indent, "{}",
                                [k.replace("%", "%%") for k in keys])
                inner = indent + "  "
                columns = [_encode_each(list(map(itemgetter(k), values)),
                                        inner) for k in keys]
                return map(record.__mod__, zip(*columns))
    return [_encode(v, indent) for v in values]


def _emit(report: dict, summary, out_path):
    body = _encode(report)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(body)
            fh.write("\n")
        for line in summary:
            print(line)
    else:
        sys.stdout.write(body)
        sys.stdout.write("\n")


def _load_semigroup(path: str) -> CayleyTable:
    """A table that must be associative.  The table keeps the scan's answer,
    so the analyses that check it again do not rescan."""
    t = _load_table(path)
    bad = associativity_failure(t)
    if bad is not None:
        raise _InputError(
            f"{path}: not associative: ({bad[0]} {bad[1]}) {bad[2]} "
            f"!= {bad[0]} ({bad[1]} {bad[2]})")
    return t


def _cmd_laws(args) -> int:
    t = _load_semigroup(args.table)
    rep = check_laws(t)
    report = {"verb": "laws", "n": t.n, "associative": True,
              "laws": rep.to_json()}
    _emit(report, [
        f"order {t.n}, associative",
        f"left_unique: {rep.left_unique}   right_unique: {rep.right_unique}",
        f"left_solvable: {rep.left_solvable}   "
        f"right_solvable: {rep.right_solvable}",
    ], args.out)
    return EXIT_OK


def _cmd_build_gm(args) -> int:
    p = _load_presentation(args.presentation)
    try:
        gm = build_gm(p)
    except PresentationError as exc:
        raise _InputError(f"{args.presentation}: {exc}") from None
    report = {"verb": "build-gm",
              "source": presentation_to_json(p),
              "extension": presentation_to_json(gm),
              "extension_text": format_presentation(gm)}
    _emit(report, [
        f"letters: {len(gm.alphabet)}   relations: {len(gm.relations)}",
    ], args.out)
    return EXIT_OK


def _cmd_kb(args) -> int:
    p = _load_presentation(args.presentation)
    rs = kb_complete(p, max_rules=args.max_rules, max_len=args.max_rule_len)
    report = {"verb": "kb",
              "status": rs.status,
              "budget_hit": rs.budget_hit,
              "rule_count": len(rs.rules),
              "rules": [{"lhs": p.word_str(r.lhs), "rhs": p.word_str(r.rhs)}
                        for r in rs.rules],
              "params": {"max_rules": args.max_rules,
                         "max_rule_len": args.max_rule_len}}
    _emit(report, [f"status: {rs.status}   rules: {len(rs.rules)}"], args.out)
    return EXIT_OK if rs.status == CONFLUENT else EXIT_BUDGET


def _cmd_probe(args) -> int:
    p = _load_presentation(args.presentation)
    try:
        rep = probe_embedding(p, args.max_len, budget=args.budget,
                              max_rules=args.max_rules,
                              max_rule_len=args.max_rule_len)
    except ProbeError as exc:
        if exc.stage == "base-completion":
            report = {"verb": "probe", "status": "budget-exhausted",
                      "stage": exc.stage, "message": str(exc),
                      "details": exc.details}
            _emit(report, [f"status: budget-exhausted ({exc})"], args.out)
            return EXIT_BUDGET
        raise _InputError(f"{args.presentation}: {exc}") from None
    report = {"verb": "probe", "max_len": args.max_len}
    report.update(rep.to_json())
    report["extension_presentation"] = presentation_to_json(rep.gm)
    summary = [f"status: {rep.status}   elements: {rep.element_count}   "
               f"witnesses: {len(rep.witnesses)}"]
    if rep.witnesses:
        w = rep.witnesses[0]
        summary.append(f"first witness: {p.word_str(w.u)}  and  "
                       f"{p.word_str(w.v)} collapse in the extension")
    _emit(report, summary, args.out)
    return EXIT_BUDGET if rep.status == "inconclusive" else EXIT_OK


def _cmd_malcev(args) -> int:
    t = _load_semigroup(args.table)
    rep = check_malcev_condition(t)
    report = {"verb": "malcev", "n": t.n}
    report.update(rep.to_json())
    summary = [f"holds: {rep.holds}   systems checked: {rep.systems_checked}"]
    if rep.violations:
        summary.append(f"violations: {len(rep.violations)}   first: "
                       f"{rep.violations[0]}")
    _emit(report, summary, args.out)
    return EXIT_OK


def _cmd_rank1(args) -> int:
    u = rank1_universe(args.n, args.p, cap=args.cap)
    report = {"verb": "rank1"}
    report.update(u.to_json())
    orders = sorted({g[3] for g in u.groups})
    _emit(report, [
        f"elements: {len(u.elements)}   idempotents: {len(u.idempotents)}   "
        f"groups: {len(u.groups)} of order {orders}",
    ], args.out)
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    tables = list(enumerate_semigroups(args.order))
    report = {"verb": "enumerate", "order": args.order, "count": len(tables)}
    if args.tables:
        report["tables"] = [[list(row) for row in t.rows] for t in tables]
    _emit(report, [f"order {args.order}: {len(tables)} associative tables"],
          args.out)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semilab",
        description="semigroup workbench: reversibility laws, group "
                    "extensions, and rank-1 matrix semigroups")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_out(sp):
        sp.add_argument("--out", metavar="PATH",
                        help="write the JSON report here and print a summary")

    sp = sub.add_parser("laws", help="reversibility laws on a finite table")
    sp.add_argument("table", help="JSON file with fields n and table")
    add_out(sp)
    sp.set_defaults(run=_cmd_laws)

    sp = sub.add_parser("build-gm", help="group extension of a presentation")
    sp.add_argument("presentation", help="presentation text file")
    add_out(sp)
    sp.set_defaults(run=_cmd_build_gm)

    sp = sub.add_parser("kb", help="complete a presentation to rewrite rules")
    sp.add_argument("presentation")
    sp.add_argument("--max-rules", type=int, default=DEFAULT_MAX_RULES)
    sp.add_argument("--max-rule-len", type=int, default=DEFAULT_MAX_RULE_LEN)
    add_out(sp)
    sp.set_defaults(run=_cmd_kb)

    sp = sub.add_parser("probe",
                        help="compare equality in M and in its extension")
    sp.add_argument("presentation")
    sp.add_argument("--max-len", type=int, default=2,
                    help="probe all elements up to this length")
    sp.add_argument("--budget", type=int, default=DEFAULT_EQ_BUDGET,
                    help="steps per witness derivation; when the extension "
                         "does not complete and no bucket collides, words "
                         "visited by all pair searches together")
    sp.add_argument("--max-rules", type=int, default=DEFAULT_MAX_RULES)
    sp.add_argument("--max-rule-len", type=int, default=DEFAULT_MAX_RULE_LEN)
    add_out(sp)
    sp.set_defaults(run=_cmd_probe)

    sp = sub.add_parser("malcev",
                        help="quadruple condition scan on a finite table")
    sp.add_argument("table")
    add_out(sp)
    sp.set_defaults(run=_cmd_malcev)

    sp = sub.add_parser("rank1",
                        help="the rank <= 1 matrix semigroup over GF(p)")
    sp.add_argument("--n", type=int, required=True, help="matrix dimension")
    sp.add_argument("--p", type=int, required=True, help="field prime")
    sp.add_argument("--cap", type=int, default=512,
                    help="largest universe to enumerate")
    add_out(sp)
    sp.set_defaults(run=_cmd_rank1)

    sp = sub.add_parser("enumerate",
                        help="all associative tables of one order")
    sp.add_argument("--order", type=int, required=True)
    sp.add_argument("--tables", action="store_true",
                    help="include every table in the report")
    add_out(sp)
    sp.set_defaults(run=_cmd_enumerate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        return args.run(args)
    except (_InputError, TableError, PresentationError, MatrixError,
            FieldError, RewritingError, ProbeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
