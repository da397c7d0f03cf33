"""Group-embeddability probing for presented cancellative monoids.

A monoid M embeds in its two-sided group of fractions only if distinct
elements of M stay distinct there.  The probe completes M to get normal
forms, builds the group extension G(M) and completes it too, and asks
which pairs of distinct M-elements up to a length bound become equal in
G(M).  A pair that collapses is a witness that no embedding exists; the
probe reports it together with replayable evidence.  The comparison is one
rewriting call, ``collapsed_normal_forms``: it buckets M's normal forms by
their irreducible form under G(M)'s rules, whether or not G(M)'s completion
finished, and returns the colliding buckets as words.  When no G(M) rule
can match a normal form of M, the normal forms are only counted, with a
word acceptor, and none is listed.

check_malcev_condition runs the classical quadruple test on a finite table:
  x a = y b,  x c = y d,  u a = v b   must force   u c = v d
in any group, so a violating 8-tuple rules out embeddability without ever
building G(M).  The scan keeps each P_ab = {(x, y) : x a = y b} as one int
mask and counts the systems and the violations exactly, with popcounts,
listing no tuple; its report lists them on demand, in lexicographic order,
a block of rows that share (a, b, c, d) at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, compress, islice, product, starmap
from operator import add, mul

from .finite import CayleyTable, TableError, is_associative
from .presentations import PLAIN, Presentation, Word, build_gm, parse_presentation_text
# reduce and enumerate_elements are unused here but stay bound:
# bench/spans.py names them among the probe's rewriting calls, and the
# benchmark's own tests look up every binding it names.  No call goes
# through either, so their spans read zero.
from .rewriting import (CONFLUENT, DEFAULT_EQ_BUDGET, DEFAULT_MAX_RULES,
                        DEFAULT_MAX_RULE_LEN, EQUAL, DerivationCertificate,
                        NormalFormCertificate, RewritingError,
                        collapsed_normal_forms,
                        derivation_certificate, derive_equal,
                        enumerate_elements,  # noqa: F401
                        iter_elements, kb_complete,
                        reduce,  # noqa: F401
                        reduce_with_trace, traces_derivation)

# inconclusive pairs a report keeps; it counts them all
MAX_INCONCLUSIVE_KEPT = 20


class ProbeError(ValueError):
    def __init__(self, message: str, stage: str = "input", details=None):
        super().__init__(message)
        self.stage = stage
        self.details = dict(details or {})


@dataclass(frozen=True)
class CollisionWitness:
    """Distinct normal forms u, v of M that name the same element of G(M).

    g_normal_form is the irreducible form u and v share under G(M)'s rules,
    its normal form only when G(M) is confluent, and g_certificate holds the
    two reduction traces to it; both are None for a pair found by search.
    derivation, when present, is a replayable chain of raw relation
    applications from u to v: the two traces with each rule expanded from
    its completion proof (see rewriting.traces_derivation), so not
    necessarily shortest, or the chain the search found.  It is None when
    it would exceed the probe's budget.
    """

    u: Word
    v: Word
    g_normal_form: Word | None = None
    g_certificate: NormalFormCertificate | None = None
    derivation: DerivationCertificate | None = None


@dataclass(frozen=True, eq=False)
class EmbeddingReport:
    source: Presentation
    gm: Presentation
    status: str                  # collision | no-collision-found | inconclusive
    probe_length: int
    element_count: int
    witnesses: tuple             # CollisionWitness, minimal pair first
    inconclusive: tuple          # first (u, v) pairs the budget could not
    inconclusive_count: int      # settle, and how many there were in all
    budget_spent: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        ws = self.source.word_str
        gs = self.gm.word_str
        witnesses = []
        for w in self.witnesses:
            entry = {"u": ws(w.u), "v": ws(w.v)}
            if w.g_normal_form is not None:
                entry["g_normal_form"] = gs(w.g_normal_form)
            if w.derivation is not None:
                entry["derivation_steps"] = len(w.derivation.steps)
                entry["derivation"] = [
                    {"relation": s.relation, "position": s.pos,
                     "forward": s.forward}
                    for s in w.derivation.steps]
            witnesses.append(entry)
        return {
            "status": self.status,
            "probe_length": self.probe_length,
            "element_count": self.element_count,
            "witnesses": witnesses,
            "inconclusive_count": self.inconclusive_count,
            "inconclusive": [[ws(u), ws(v)] for u, v in self.inconclusive],
            "budget_spent": dict(self.budget_spent),
        }


def probe_embedding(p: Presentation, max_len: int,
                    budget: int = DEFAULT_EQ_BUDGET,
                    max_rules: int = DEFAULT_MAX_RULES,
                    max_rule_len: int = DEFAULT_MAX_RULE_LEN) -> EmbeddingReport:
    """Compare equality in M with equality in G(M) on all elements of M of
    length <= max_len.

    Needs a confluent completion of M itself (otherwise there is no element
    list to compare) and raises ProbeError when the rule budget cannot
    deliver one, when M's elements up to max_len number more than an int
    may print, or when ``budget`` is negative.  Elements are bucketed by
    their irreducible form under G(M)'s rules, complete or not, and each
    colliding pair's derivation is built from the completion record, capped
    at ``budget`` steps.  Only when G(M) did not complete and no bucket
    collided does the probe search, pair by pair in order, for a relation
    chain, until one finds a collision or the searches have visited
    ``budget`` words in all; each search gets what the ones before it left.
    The elements are drawn one by one as the pairs reach them.  With no
    collision found, all n(n-1)/2 pairs are inconclusive: the report counts
    them and keeps the first MAX_INCONCLUSIVE_KEPT.
    """
    if p.kind != PLAIN:
        raise ProbeError("probe expects a plain monoid presentation, not an "
                         "already-extended one")
    if max_len < 1:
        raise ProbeError("probe length must be at least 1")
    if budget < 0:
        raise ProbeError("probe budget must not be negative")
    rs_m = kb_complete(p, max_rules=max_rules, max_len=max_rule_len)
    if rs_m.status != CONFLUENT:
        raise ProbeError(
            "completion of the base monoid exhausted its budget, so its "
            "elements cannot be enumerated",
            stage="base-completion",
            details={"rules": len(rs_m.rules), "status": rs_m.status})
    gm = build_gm(p)
    rs_g = kb_complete(gm, max_rules=max_rules, max_len=max_rule_len)
    spent = {
        "base_rules": len(rs_m.rules),
        "extension_rules": len(rs_g.rules),
        "extension_status": rs_g.status,
        "buckets": 0,
        "pairs_checked": 0,
        "words_visited": 0,
        "certificate_steps": 0,
        "derivations_over_budget": 0,
    }
    try:
        n, spent["buckets"], colliding = collapsed_normal_forms(rs_m, rs_g,
                                                                max_len)
    except RewritingError as exc:   # a count too long to print
        raise ProbeError(str(exc)) from None
    traced = {u: reduce_with_trace(u, rs_g)
              for members in colliding for u in members}
    # shortlex order of u, then of v: a bucket lists its members in
    # shortlex order, and the sort is stable
    pairs = sorted(((u, v) for members in colliding
                    for k, u in enumerate(members) for v in members[k + 1:]),
                   key=lambda uv: (len(uv[0]), uv[0]))
    spent["pairs_checked"] = len(pairs)
    witnesses = []
    for u, v in pairs:
        nf_u, trace_u = traced[u]
        nf_v, trace_v = traced[v]
        steps = traces_derivation(rs_g, trace_u, trace_v, max_steps=budget)
        if steps is None:
            spent["derivations_over_budget"] += 1
            derivation = None
        else:
            spent["certificate_steps"] += len(steps)
            derivation = derivation_certificate(gm, u, steps)
        witnesses.append(CollisionWitness(
            u, v, nf_u, NormalFormCertificate(nf_u, nf_v, trace_u, trace_v),
            derivation))
    inconclusive = ()
    inconclusive_count = 0
    if rs_g.status != CONFLUENT and not witnesses:
        # every bucket is one element, so the pairs not yet apart are all
        # of them; a search runs on each in order until one finds a chain
        # or the searches have visited budget words in all
        for u, v in _pairs(iter_elements(rs_m, max_len)):
            left = budget - spent["words_visited"]
            if left < 2:    # a search visits its two end words first
                break
            verdict = derive_equal(gm, u, v, budget=left)
            spent["pairs_checked"] += 1
            spent["words_visited"] += verdict.spent["visited"]
            if verdict.value == EQUAL:
                spent["certificate_steps"] += len(verdict.certificate.steps)
                witnesses.append(CollisionWitness(
                    u, v, derivation=verdict.certificate))
                break
        if not witnesses:
            # a search never answers distinct, so with no collision every
            # pair stays unsettled
            inconclusive_count = n * (n - 1) // 2
            inconclusive = tuple(islice(_pairs(iter_elements(rs_m, max_len)),
                                        MAX_INCONCLUSIVE_KEPT))
    if witnesses:
        status = "collision"
    elif inconclusive_count:
        status = "inconclusive"
    else:
        status = "no-collision-found"
    return EmbeddingReport(p, gm, status, max_len, n, tuple(witnesses),
                           inconclusive, inconclusive_count, spent)


def _pairs(words):
    """``combinations(words, 2)``, in the same order, for an iterator
    ``words`` that is drawn only as far as the pairs taken need: the first
    word pairs with each later one as it is drawn, and only then do the
    later words pair among themselves."""
    words = iter(words)
    rest = []
    for u in islice(words, 1):
        for v in words:
            rest.append(v)
            yield u, v
    yield from combinations(rest, 2)


# The three-relation monoid below satisfies no group law forcing u c = v d,
# yet x a = y b, x c = y d, u a = v b hold by fiat; in any group those three
# force u c = v d, so its group extension must glue uc to vd.
_QUADRUPLE_TEXT = """\
letters: x y a b c d u v
rel: x a = y b
rel: x c = y d
rel: u a = v b
"""


def quadruple_presentation() -> Presentation:
    """The stock non-embeddable cancellative monoid used by the demos."""
    return parse_presentation_text(_QUADRUPLE_TEXT)


@dataclass(frozen=True)
class MalcevReport:
    """Outcome of the quadruple condition on one finite table of order n:
    the exact counts, and for each (a, b), in lexicographic order, the mask
    of P_ab = {(x, y) : x a = y b}, an int with bit x n + y set for each
    (x, y) in P_ab.

    ``blocks`` is the one definition of the listing's order;
    ``iter_violations``, ``violations``, ``to_json`` and the CLI's writer
    all expand it."""

    systems_checked: int
    violation_count: int
    n: int = field(repr=False, compare=False)
    masks: tuple = field(repr=False, compare=False)

    @property
    def holds(self) -> bool:
        return not self.violation_count

    def blocks(self):
        """The violations a system at a time, in the listing's one order:
        for each system (a, b, c, d), in lexicographic order, whose anchors
        P_ab & P_cd are neither none nor all of P_ab, the block
        ((a, b, c, d), uvs, anchors) with uvs the sorted tuple of
        P_ab - P_cd and anchors that of P_ab & P_cd.  The block's
        violations are (a, b, c, d) + (u, v) + (x, y) for each (u, v) in
        uvs and, within it, each (x, y) in anchors, so the blocks expanded
        are in lexicographic order.  Decoded masks are kept, at most n^2
        at a time, so equal masks share one tuple."""
        if not self.violation_count:    # spare the scan's second pass
            return
        rng = range(self.n)
        pairs = [(x, y) for x in rng for y in rng]     # bit x n + y
        decoded = {}

        def members(mask):
            found = decoded.get(mask)
            if found is None:
                if len(decoded) >= len(pairs):
                    decoded.clear()
                # bin(mask) reversed is bit 0 first
                found = decoded[mask] = tuple(
                    compress(pairs, map("1".__eq__, bin(mask)[:1:-1])))
            return found

        systems = list(zip(pairs, self.masks))
        for ab, m_ab in systems:
            for cd, m_cd in systems:
                anchors = m_ab & m_cd
                if anchors and anchors != m_ab:
                    yield ab + cd, members(m_ab ^ anchors), members(anchors)

    def iter_violations(self):
        """The 8-tuples (a, b, c, d, u, v, x, y) with u c != v d, in
        lexicographic order: ``blocks`` expanded."""
        for system, uvs, anchors in self.blocks():
            heads = map(system.__add__, uvs)
            yield from starmap(add, product(heads, anchors))

    @cached_property
    def violations(self) -> tuple:
        return tuple(self.iter_violations())

    def to_json_stream(self) -> dict:
        """The report's fields, with ``violations`` a ``ViolationListing``
        that lists the tuples only as it is drawn."""
        return {"systems_checked": self.systems_checked, "holds": self.holds,
                "violations": ViolationListing(self)}

    def to_json(self) -> dict:
        """``to_json_stream`` with the violations drawn into a list."""
        report = self.to_json_stream()
        report["violations"] = list(report["violations"])
        return report


@dataclass(frozen=True)
class ViolationListing:
    """A report's violations as a lazy list: iterating it gives
    ``report.iter_violations()``, and a writer that knows the type may
    encode ``report.blocks()`` instead, sharing each block's parts."""

    report: MalcevReport

    def __iter__(self):
        return self.report.iter_violations()


def check_malcev_condition(t: CayleyTable) -> MalcevReport:
    """Scan all (a, b, c, d, u, v, x, y) with x a = y b, x c = y d,
    u a = v b and count the tuples where u c != v d, listing none.

    With P_ab = {(x, y) : x a = y b}, the anchors (x, y) of a system
    (a, b, c, d) are P_ab & P_cd, of size k say.  The systems checked
    number |P_ab| * k and the violations, (P_ab - P_cd) x anchors,
    (|P_ab| - k) * k; summed over the systems of one (a, b), those are
    |P_ab| * K1 and |P_ab| * K1 - K2 with K1 and K2 the sums of k and k^2.
    Each P_ab is one int mask, so a row of k is one C-side map of
    ``&`` and ``int.bit_count`` over all the masks."""
    if not is_associative(t):
        raise TableError("the quadruple condition is checked on semigroups; "
                         "table is not associative")
    n = t.n
    cols = tuple(zip(*t.rows))
    # by_value[b][z]: the mask of the y with y b = z, as bits y
    by_value = [[0] * n for _ in cols]
    for masks_b, col in zip(by_value, cols):
        for y, z in enumerate(col):
            masks_b[z] |= 1 << y
    # bits x n + y of P_ab: for each x, the y with y b = x a, shifted to x
    masks = tuple(sum(masks_b[z] << x * n for x, z in enumerate(col_a))
                  for col_a in cols for masks_b in by_value)
    checked = squares = 0
    for m_ab in masks:
        ks = list(map(int.bit_count, map(m_ab.__and__, masks)))
        checked += m_ab.bit_count() * sum(ks)
        squares += sum(map(mul, ks, ks))
    return MalcevReport(checked, checked - squares, n, masks)
