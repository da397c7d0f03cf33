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
a short summary on stdout instead.  A verb's handler returns the report,
the summary lines and the exit code; ``main`` adds the verb's name and
writes the report.  The argument parser is built once, when the module is
imported, and binds each verb to its handler then; ``main`` parses every
argv with that one parser, so a process that calls it many times pays for
the parser once.  The report bytes are exactly those of
``json.dumps(report, indent=2, sort_keys=True)`` plus a newline.  They are
written as they are encoded: ``_parts`` yields the text a dict key or a
slice of a list at a time, with the joins done in C, and a generator in the
report is drawn only as its slice is written.  A list whose items share one
shape (one scalar type, lists or tuples of one width, or dicts of one set
of str keys) is written with one template, filled once per item from its
columns, each column written by the same rule (see ``_encode_each``); only
other lists are written item by item.  ``malcev``'s violations come
as a ``ViolationListing`` and are written from its blocks, rows that share
their first four entries: one C-side join per block with one anchor, and
one per (u, v) head of any other block (see ``_violation_rows``), gathered
into parts of about ``_SLICE`` rows.  So ``malcev`` never holds its
violation list and encodes each shared part once.  ``malcev``
refuses, before writing anything, a table with more than
MAX_LISTED_VIOLATIONS violations.  Exit codes: 0 the analysis completed
(finding a collision or a law failure is a completed analysis), 2 bad input
or parameters (an --out path that cannot be written and a malcev listing
too large to write included), 3 a search budget ran out before the answer
was settled (a partial report is still written).  An --out path whose
directory is missing, or that names a directory, is refused before the
analysis runs.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from itertools import chain, islice
from json.encoder import encode_basestring_ascii as _encode_str
from types import GeneratorType

from .embedding import (ProbeError, ViolationListing, check_malcev_condition,
                        probe_embedding)
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


def _load(path: str, parse):
    """``parse(path)``, with a missing file, bytes that are not UTF-8,
    invalid JSON or a bad table or presentation raised as an input error
    that names ``path``."""
    try:
        return parse(path)
    except OSError as exc:
        raise _InputError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise _InputError(f"{path}: not valid UTF-8: {exc.reason}") from None
    except json.JSONDecodeError as exc:
        raise _InputError(f"{path}: not valid JSON: {exc}") from None
    except (TableError, PresentationError) as exc:   # ParseError is one
        raise _InputError(f"{path}: {exc}") from None


def _read_table(path: str) -> CayleyTable:
    with open(path, "r", encoding="utf-8") as fh:
        return CayleyTable.from_json(json.load(fh))


def _load_semigroup(path: str) -> CayleyTable:
    """A table that must be associative.  The table keeps the scan's answer,
    so the analyses that check it again do not rescan."""
    t = _load(path, _read_table)
    bad = associativity_failure(t)
    if bad is not None:
        raise _InputError(
            f"{path}: not associative: ({bad[0]} {bad[1]}) {bad[2]} "
            f"!= {bad[0]} ({bad[1]} {bad[2]})")
    return t


# exact type -> encoder for the scalars json writes without a fallback;
# bool is its own type, so an int path never prints a bool as a number
_SCALARS = {str: _encode_str, int: int.__repr__,
            bool: {True: "true", False: "false"}.__getitem__,
            type(None): lambda _: "null"}
# a list is drawn and joined this many items at a time, so a long one never
# has all its item strings alive at once
_SLICE = 4096
# a malcev report lists every violation; past this many (about 850 MB of
# report) it is refused before a byte is written
MAX_LISTED_VIOLATIONS = 10_000_000
# the malcev listing keeps at most about this many (u, v) or (x, y) texts
_FILLED = 1 << 16


def _parts(obj, indent: str = ""):
    """``json.dumps(obj, indent=2, sort_keys=True)`` in consecutive parts,
    with ``indent`` the indentation of the line ``obj`` starts on.  A dict
    is written key by key.  A list, tuple or generator (written as a list)
    is drawn ``_SLICE`` items at a time, and each slice is one part, joined
    in C, with one template fill per item when its items share a shape (see
    ``_encode_each``).  With indent set the json module runs its
    pure-Python encoder, so json.dumps is called only for what has no
    exact-type path (floats, int keys, subclasses).  A ``ViolationListing``
    is written as the list it yields, from the texts ``_violation_rows``
    makes, each a run of rows that share their (a, b, c, d, u, v) head or,
    in a one-anchor block, a whole block.  Texts are gathered until they
    hold ``_SLICE`` rows or more and written as one part, so a part ends at
    a head boundary and holds fewer than ``_SLICE + n^2`` rows."""
    kind = type(obj)
    scalar = _SCALARS.get(kind)
    if scalar is not None:
        yield scalar(obj)
        return
    inner = indent + "  "
    listing = kind is ViolationListing
    if listing or kind is list or kind is tuple or kind is GeneratorType:
        if listing:
            slices = _gather(_violation_rows(obj.report, inner))
        else:                           # lists of _SLICE items, until []
            items = iter(obj)
            slices = (_encode_each(chunk, inner) for chunk in
                      iter(lambda: list(islice(items, _SLICE)), []))
        sep = ",\n" + inner
        head = "[\n" + inner
        for chunk in slices:
            yield head
            yield sep.join(chunk)
            head = sep
        # head is sep once an item is written
        yield "\n" + indent + "]" if head is sep else "[]"
        return
    if kind is dict and set(map(type, obj)) == {str}:
        head = "{\n" + inner
        for key in sorted(obj):
            value = obj[key]
            scalar = _SCALARS.get(type(value))
            if scalar is not None:      # one part, no nested generator
                yield head + _encode_str(key) + ": " + scalar(value)
            else:
                yield head + _encode_str(key) + ": "
                yield from _parts(value, inner)
            head = ",\n" + inner
        yield "\n" + indent + "}"
        return
    # json.dumps escapes newlines inside strings, so every raw newline
    # starts a line that needs the outer indentation
    text = json.dumps(obj, indent=2, sort_keys=True)
    yield text.replace("\n", "\n" + indent)


def _encode(obj, indent: str = "") -> str:
    """The parts of ``obj`` joined: its json.dumps text, byte for byte."""
    return "".join(_parts(obj, indent))


def _encode_each(values, indent: str):
    """The encodings of ``values``, each starting on a line indented by
    ``indent``: one C-side map when they share a shape.  Values of one
    scalar type map through its encoder.  Lists or tuples of one width, and
    dicts of one set of str keys, are one shape each, and each value gets
    one fill of one template: a ``%d`` row template when every entry is an
    int, else a ``%s`` template filled from the columns (the entries at one
    index or under one key), each column encoded by this same rule.
    Anything else, a bool among ints included, is encoded item by item."""
    kinds = set(map(type, values))
    if len(kinds) == 1:
        kind = kinds.pop()
        if kind in _SCALARS:
            return map(_SCALARS[kind], values)
        inner = indent + "  "
        fields = ()
        if kind is list or kind is tuple:
            widths = set(map(len, values))
            if len(widths) == 1 and 0 not in widths:
                brackets, width = "[]", widths.pop()
                if set(map(type, chain.from_iterable(values))) == {int}:
                    fields, rows = ["%d"] * width, map(tuple, values)
                else:
                    fields = ["%s"] * width
                    rows = zip(*[_encode_each(column, inner)
                                 for column in zip(*values)])
        elif kind is dict:
            keysets = set(map(frozenset, values))
            keys = keysets.pop() if len(keysets) == 1 else ()
            if keys and set(map(type, keys)) == {str}:
                keys = sorted(keys)
                brackets = "{}"
                fields = [_encode_str(k).replace("%", "%%") + ": %s"
                          for k in keys]
                rows = zip(*[_encode_each([v[k] for v in values], inner)
                             for k in keys])
        if fields:
            sep = ",\n" + inner
            template = (brackets[0] + sep[1:] + sep.join(fields) + "\n"
                        + indent + brackets[1])
            return map(template.__mod__, rows)
    return [_encode(v, indent) for v in values]


def _violation_rows(report, indent: str):
    """The encodings of ``report``'s violations, each starting on a line
    indented by ``indent``, as (rows, text) pairs with text the rows
    joined: one pair per block of its ``blocks`` that has one anchor, and
    one per (u, v) head of any other block.  A row is its (a, b, c, d, u,
    v) head plus its (x, y) tail.  The (u, v) texts of each distinct
    ``uvs`` tuple, and the (x, y) texts of each distinct ``anchors`` tuple,
    are made once (see ``_Filled``), so a one-anchor block is one C-side
    join of them with no lookup per row."""
    sep = ",\n" + indent + "  "
    opening = "[" + sep[1:] + sep.join(["%d"] * 4) + sep
    middles = _Filled("%d" + sep + "%d" + sep)
    tails = _Filled("%d" + sep + "%d\n" + indent + "]")
    between = ",\n" + indent                    # between two rows
    for system, uvs, anchors in report.blocks():
        start = opening % system
        ends = tails[anchors]
        if len(ends) == 1:
            end = ends[0]
            yield len(uvs), (start + (end + between + start).join(
                middles[uvs]) + end)
            continue
        for middle in middles[uvs]:
            head = start + middle
            yield len(ends), head + (between + head).join(ends)


class _Filled(dict):
    """A tuple of keys -> the texts ``template % key`` of its keys, filled
    on its first lookup.  Once it holds ``_FILLED`` texts it is emptied
    before the next fill, so it stays bounded."""

    def __init__(self, template: str):
        super().__init__()
        self.template = template
        self.held = 0

    def __missing__(self, keys):
        if self.held >= _FILLED:
            self.clear()
            self.held = 0
        texts = self[keys] = tuple(map(self.template.__mod__, keys))
        self.held += len(texts)
        return texts


def _gather(pairs):
    """The texts of (rows, text) ``pairs``, in lists that each end at the
    first text that brings them to ``_SLICE`` rows or more."""
    texts, rows = [], 0
    for count, text in pairs:
        texts.append(text)
        rows += count
        if rows >= _SLICE:
            yield texts
            texts, rows = [], 0
    if texts:
        yield texts


def _check_out(out_path: str) -> None:
    """Refuse ``out_path`` before any analysis runs when opening it for
    writing must fail: it names a directory, or its directory is missing or
    not a directory.  The message is the one opening it gives.  Nothing is
    created or truncated; other failures (permissions, a full disk) are left
    to ``_emit``."""
    if os.path.isdir(out_path):
        raise _InputError(f"{out_path}: {os.strerror(errno.EISDIR)}")
    try:
        # "." inside the directory: a file there fails as ENOTDIR
        os.stat(os.path.join(os.path.dirname(out_path), "."))
    except OSError as exc:
        raise _InputError(f"{out_path}: {exc.strerror or exc}") from None


def _emit(report: dict, summary, out_path):
    """Write the report as it is encoded, part by part, to ``out_path``
    (then print the summary) or to stdout."""
    parts = chain(_parts(report), ("\n",))
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.writelines(parts)
        except OSError as exc:
            raise _InputError(f"{out_path}: {exc.strerror or exc}") from None
        for line in summary:
            print(line)
    else:
        sys.stdout.writelines(parts)


# Each handler returns (report, summary lines, exit code).  The parser,
# built at import, binds the handlers themselves; the library functions a
# handler calls are still looked up in this module when it runs, so a
# wrapper installed here sees the call.

def _cmd_laws(args):
    t = _load_semigroup(args.table)
    rep = check_laws(t)
    return {"n": t.n, "associative": True, "laws": rep.to_json()}, [
        f"order {t.n}, associative",
        f"left_unique: {rep.left_unique}   right_unique: {rep.right_unique}",
        f"left_solvable: {rep.left_solvable}   "
        f"right_solvable: {rep.right_solvable}",
    ], EXIT_OK


def _cmd_build_gm(args):
    p = _load(args.presentation, parse_presentation_file)
    # build_gm refuses some presentations; say which file
    gm = _load(args.presentation, lambda _: build_gm(p))
    return {"source": presentation_to_json(p),
            "extension": presentation_to_json(gm),
            "extension_text": format_presentation(gm)}, [
        f"letters: {len(gm.alphabet)}   relations: {len(gm.relations)}",
    ], EXIT_OK


def _cmd_kb(args):
    p = _load(args.presentation, parse_presentation_file)
    rs = kb_complete(p, max_rules=args.max_rules, max_len=args.max_rule_len)
    return {"status": rs.status,
            "budget_hit": rs.budget_hit,
            "rule_count": len(rs.rules),
            "rules": [{"lhs": p.word_str(r.lhs), "rhs": p.word_str(r.rhs)}
                      for r in rs.rules],
            "params": {"max_rules": args.max_rules,
                       "max_rule_len": args.max_rule_len}}, [
        f"status: {rs.status}   rules: {len(rs.rules)}",
    ], EXIT_OK if rs.status == CONFLUENT else EXIT_BUDGET


def _cmd_probe(args):
    p = _load(args.presentation, parse_presentation_file)
    try:
        # build_gm refuses some presentations; say which file
        rep = _load(args.presentation, lambda _: probe_embedding(
            p, args.max_len, budget=args.budget, max_rules=args.max_rules,
            max_rule_len=args.max_rule_len))
    except ProbeError as exc:
        if exc.stage != "base-completion":
            raise _InputError(f"{args.presentation}: {exc}") from None
        return {"status": "budget-exhausted", "stage": exc.stage,
                "message": str(exc), "details": exc.details}, [
            f"status: budget-exhausted ({exc})"], EXIT_BUDGET
    report = {"max_len": args.max_len, **rep.to_json(),
              "extension_presentation": presentation_to_json(rep.gm)}
    summary = [f"status: {rep.status}   elements: {rep.element_count}   "
               f"witnesses: {len(rep.witnesses)}"]
    if rep.witnesses:
        w = rep.witnesses[0]
        summary.append(f"first witness: {p.word_str(w.u)}  and  "
                       f"{p.word_str(w.v)} collapse in the extension")
    return report, summary, (EXIT_BUDGET if rep.status == "inconclusive"
                             else EXIT_OK)


def _cmd_malcev(args):
    t = _load_semigroup(args.table)
    rep = check_malcev_condition(t)
    if rep.violation_count > MAX_LISTED_VIOLATIONS:
        raise _InputError(
            f"{args.table}: {rep.violation_count} violations of the quadruple "
            f"condition, more than the {MAX_LISTED_VIOLATIONS} a report may "
            "list")
    # the violations are listed while the report is written
    report = {"n": t.n, **rep.to_json_stream()}
    summary = [f"holds: {rep.holds}   systems checked: {rep.systems_checked}"]
    if not rep.holds:
        summary.append(f"violations: {rep.violation_count}   first: "
                       f"{next(rep.iter_violations())}")
    return report, summary, EXIT_OK


def _cmd_rank1(args):
    u = rank1_universe(args.n, args.p)
    orders = sorted({g[3] for g in u.groups})
    return u.to_json(), [
        f"elements: {len(u.elements)}   idempotents: {len(u.idempotents)}   "
        f"groups: {len(u.groups)} of order {orders}",
    ], EXIT_OK


def _cmd_enumerate(args):
    tables = list(enumerate_semigroups(args.order))
    report = {"order": args.order, "count": len(tables)}
    if args.tables:
        report["tables"] = [t.rows for t in tables]
    summary = [f"order {args.order}: {len(tables)} associative tables"]
    return report, summary, EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semilab",
        description="semigroup workbench: reversibility laws, group "
                    "extensions, and rank-1 matrix semigroups")
    sub = parser.add_subparsers(dest="verb", required=True)
    # options that several verbs share, each declared once
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", metavar="PATH",
                     help="write the JSON report here and print a summary")
    budgets = argparse.ArgumentParser(add_help=False)
    budgets.add_argument("--max-rules", type=int, default=DEFAULT_MAX_RULES)
    budgets.add_argument("--max-rule-len", type=int,
                         default=DEFAULT_MAX_RULE_LEN)

    def verb(name, run, help, *parents):
        sp = sub.add_parser(name, help=help, parents=[*parents, out])
        sp.set_defaults(run=run)
        return sp

    sp = verb("laws", _cmd_laws, "reversibility laws on a finite table")
    sp.add_argument("table", help="JSON file with fields n and table")

    sp = verb("build-gm", _cmd_build_gm, "group extension of a presentation")
    sp.add_argument("presentation", help="presentation text file")

    sp = verb("kb", _cmd_kb, "complete a presentation to rewrite rules",
              budgets)
    sp.add_argument("presentation")

    sp = verb("probe", _cmd_probe,
              "compare equality in M and in its extension", budgets)
    sp.add_argument("presentation")
    sp.add_argument("--max-len", type=int, default=2,
                    help="probe all elements up to this length")
    sp.add_argument("--budget", type=int, default=DEFAULT_EQ_BUDGET,
                    help="steps per witness derivation; when the extension "
                         "does not complete and no bucket collides, words "
                         "visited by all pair searches together")

    sp = verb("malcev", _cmd_malcev,
              "quadruple condition scan on a finite table")
    sp.add_argument("table")

    sp = verb("rank1", _cmd_rank1,
              "the rank <= 1 matrix semigroup over GF(p)")
    sp.add_argument("--n", type=int, required=True, help="matrix dimension")
    sp.add_argument("--p", type=int, required=True, help="field prime")

    sp = verb("enumerate", _cmd_enumerate,
              "all associative tables of one order")
    sp.add_argument("--order", type=int, required=True)
    sp.add_argument("--tables", action="store_true",
                    help="include every table in the report")
    return parser


# parse_args keeps no state between calls: each returns a new Namespace, no
# action has a mutable default, and help and errors are printed to the
# sys.stdout and sys.stderr of the moment
_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        if args.out:
            _check_out(args.out)
        report, summary, code = args.run(args)
        report["verb"] = args.verb
        _emit(report, summary, args.out)
    except (_InputError, TableError, PresentationError, MatrixError,
            FieldError, RewritingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return code


if __name__ == "__main__":
    sys.exit(main())
