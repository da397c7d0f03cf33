"""Shortlex string rewriting for monoid presentations.

Relations are oriented into length-then-lexicographic (shortlex) decreasing
rules, and Knuth-Bendix completion resolves critical pairs until the system
is confluent or a budget trips.  Completion is a semi-decision procedure, so
budgets are first-class: exhaustion is reported as a status, never a wrong
answer.  A confluent system decides word equality by normal forms; otherwise
a bounded bidirectional search over raw relation applications can still
certify equality (with a replayable derivation) or give up with "unknown".

Completion keeps its live rules interreduced after every equation, so it
returns them as they stand, and it keeps a proof of every rule as it makes
it, built from the reduction traces it computes anyway (see
``_Provenance``).
``rule_derivation`` expands those proofs into raw relation steps, so a
reduction trace becomes a replayable derivation without any search.  Such
derivations are not necessarily shortest; the search finds shortest ones.

Internally words are packed one letter per character into ordinary strings,
so factor matching and replacement run on the C string machinery.  Only
this module packs: ``_enc`` gives a letter the character ``chr(33 + rank)``,
so string order is letter order and every presentation packs a letter the
same way.  One reduction engine, ``_reduce``, rewrites such strings:
completion reduces with it, keeping each trace as a proof, and
``reduce_with_trace`` traces with it, so both apply rules in the same sweep
order.  Between rule changes completion hands it a memo of the sweeps it has
already run, so a sweep repeated from the same string is looked up, not
redone.  One overlap generator, ``_overlap_results``, serves completion and
``critical_pairs``.  One word acceptor, ``_Acceptor``, tells which words
are a confluent system's normal forms, and two walks read it:
``_irreducible_strings`` lists them packed, in shortlex order, and
``_normal_form_counts`` counts them by length without listing one.
``iter_elements`` and ``enumerate_elements`` decode the listing, one word
at a time or as a list; ``collapsed_normal_forms`` groups it under another
system's rules, or takes the counts when none of the rules it tries can
match a normal form.
"""

from __future__ import annotations

import sys
from collections import deque
from dataclasses import dataclass, field
from functools import cache, cached_property

from .presentations import Letter, Presentation, Word

CONFLUENT = "confluent"
BUDGET_EXHAUSTED = "budget-exhausted"

EQUAL = "equal"
DISTINCT = "distinct"
UNKNOWN = "unknown"

DEFAULT_MAX_RULES = 500
DEFAULT_MAX_RULE_LEN = 50
DEFAULT_EQ_BUDGET = 100_000
# letters a derive_equal search may add beyond the longer end word
LEN_SLACK = 4

_ENC_BASE = 33


class RewritingError(ValueError):
    """Misuse of the rewriting machinery (bad budget, non-confluent input...)."""


@cache
def _char(letter: Letter) -> str:
    return chr(_ENC_BASE + letter.rank)


@cache
def _letter(ch: str) -> Letter:
    # cached, so decoded words share their Letter instances
    rank = ord(ch) - _ENC_BASE
    return Letter(rank >> 1, bool(rank & 1))


def _enc(word: Word) -> str:
    """The word packed one character per letter, in letter order."""
    return "".join(map(_char, word))


def _dec(s: str) -> Word:
    return tuple(map(_letter, s))


def _sl_key(s: str):
    return (len(s), s)


def shortlex_less(u: Word, v: Word) -> bool:
    """True iff u precedes v in shortlex: shorter first, the order of the
    ``letters:`` line breaking length ties."""
    if len(u) != len(v):
        return len(u) < len(v)
    return tuple(l.rank for l in u) < tuple(l.rank for l in v)


@dataclass(frozen=True)
class Rule:
    """Oriented rewriting rule; lhs is strictly shortlex-greater than rhs."""

    lhs: Word
    rhs: Word


@dataclass(frozen=True)
class ReductionStep:
    """One application of ``rule`` at letter position ``pos``."""

    rule: int
    pos: int


@dataclass(frozen=True)
class RewriteSystem:
    """An interreduced shortlex rewriting system for a presentation.

    ``status`` is ``confluent`` when every critical pair resolved during
    completion, ``budget-exhausted`` otherwise (the rules are still sound
    consequences of the relations, just not necessarily complete), and
    ``budget_hit`` then names the limit that stopped completion:
    ``"max_rules"`` or ``"max_rule_len"``.  ``provenance`` holds the proof
    completion kept for each rule; it backs ``rule_derivation``.
    Neither takes part in equality.
    """

    source: Presentation
    rules: tuple
    status: str
    budget_hit: str | None = field(default=None, compare=False)
    provenance: object = field(default=None, compare=False, repr=False)

    @cached_property
    def _enc_rules(self) -> tuple:
        """The rules as ``_reduce`` takes them: (lhs, rhs, rule index)."""
        return tuple((_enc(r.lhs), _enc(r.rhs), k)
                     for k, r in enumerate(self.rules))


def _reduce(s, rules, memo=None):
    """Rewrite ``s`` with ``rules``, (lhs, rhs, key) triples in order, until
    no lhs occurs.  Each sweep takes the rules in turn and replaces every
    occurrence of a lhs, left to right and without overlaps (``str.replace``);
    sweeps repeat until one changes nothing.  Returns the reduced string and
    the applied parts (key, offset, True), in order, each offset into the
    string as the parts before it left it.

    ``memo``, when given, maps a string at the start of a sweep to the
    string that sweep leaves and the parts it applied; looked-up sweeps are
    not run again, so the result is the same as without it.  Pass one only
    while ``rules`` stays the same: it is keyed by string alone."""
    parts = []
    while True:
        hit = memo.get(s) if memo is not None else None
        if hit is None:
            t, sweep = s, []
            for l, r, key in rules:
                if l not in t:
                    continue
                pos, shift, grow = t.find(l), 0, len(r) - len(l)
                while pos != -1:
                    sweep.append((key, pos + shift, True))
                    shift += grow
                    pos = t.find(l, pos + len(l))
                t = t.replace(l, r)
            if memo is not None:
                memo[s] = (t, sweep)
        else:
            t, sweep = hit
        parts += sweep
        if t == s:
            return s, parts
        s = t


def _overlap_results(li: str, ri: str, lj: str, rj: str):
    """For each proper overlap of rules li -> ri and lj -> rj, a suffix of
    li of length k that is a prefix of lj, longest first: k and the overlap
    word li + lj[k:] rewritten by the first rule and by the second."""
    for k in range(min(len(li), len(lj)) - 1, 0, -1):
        if lj.startswith(li[-k:]):
            yield k, ri + lj[k:], li[:-k] + rj


def _orient(a: str, b: str):
    if a == b:
        return None
    return (a, b) if _sl_key(a) > _sl_key(b) else (b, a)


def kb_complete(p: Presentation, max_rules: int = DEFAULT_MAX_RULES,
                max_len: int = DEFAULT_MAX_RULE_LEN) -> RewriteSystem:
    """Knuth-Bendix completion under shortlex, with budgets.

    Relations are oriented and critical pairs resolved FIFO (shortest
    overlap word first on ties) until no unresolved pair remains, or until
    more than ``max_rules`` rules have been added or a rule side would
    exceed ``max_len`` letters; ``budget_hit`` names the one that tripped.
    The returned system is interreduced either way: each new lhs is
    reduced, the rules whose lhs contains it die, the rhs that contain it
    are reduced again, and a budget stop changes nothing, so the live
    rules are returned as they stand, in shortlex order of their lhs.
    Every rule version completion makes gets a proof, kept on
    ``provenance`` as it is made: the traces of the reductions that
    produced the rule, around the equation it was oriented from (see
    ``_Provenance``).  Pending equations are reduced through one sweep memo
    (``_reduce``'s ``memo``), cleared just before each change to the rules,
    so the sweeps, traces and proofs are those of plain ``_reduce``.
    """
    if max_rules <= 0 or max_len <= 0:
        raise RewritingError("completion budgets must be positive")
    # live rules in index order: index -> (lhs, rhs, proof key of this
    # version), the triples _reduce takes
    rules = {}
    n_added = 0
    budget_hit = None
    tasks = deque()     # rule-index pairs whose overlaps are unexamined
    pending = deque()   # (a, b, parts): equations and the proofs of a = b
    prov = _Provenance()
    sweeps = {}         # _reduce's memo, valid while ``rules`` is unchanged

    def process_pending():
        nonlocal n_added, budget_hit
        while pending:
            a, b, eq = pending.popleft()
            ra, trace_a = _reduce(a, rules.values(), sweeps)
            rb, trace_b = _reduce(b, rules.values(), sweeps)
            oriented = _orient(ra, rb)
            if oriented is None:
                continue
            l, r = oriented
            if len(l) > max_len:
                budget_hit = "max_rule_len"
                return False
            if n_added >= max_rules:
                budget_hit = "max_rules"
                return False
            if l != ra:
                trace_a, trace_b, eq = trace_b, trace_a, _reversed(eq)
            k = n_added
            n_added += 1
            sweeps.clear()
            older = list(rules.items())
            rules[k] = (l, r, prov.add(_reversed(trace_a) + eq + trace_b))
            for i, (li, ri, vi) in older:
                if l in li:
                    del rules[i]
                    pending.append((li, ri, [(vi, 0, True)]))
                elif l in ri:
                    ri, trace = _reduce(ri, rules.values())
                    rules[i] = (li, ri, prov.add([(vi, 0, True)] + trace))
            # k is new, so none of its pairs has been queued before
            for j in rules:
                tasks.extend(((k, j), (j, k)) if j != k else ((k, k),))
        return True

    for idx, rel in enumerate(p.relations):
        pending.append((_enc(rel.lhs), _enc(rel.rhs), [(~idx, 0, True)]))
    ok = process_pending()

    while ok and tasks:
        i, j = tasks.popleft()
        if i not in rules or j not in rules:
            continue
        li, ri, vi = rules[i]
        lj, rj, vj = rules[j]
        for k, a, b in _overlap_results(li, ri, lj, rj):
            pending.append((a, b, [(vi, 0, False), (vj, len(li) - k, True)]))
        ok = process_pending()

    live = sorted(rules.values(), key=lambda lrv: _sl_key(lrv[0]))
    prov.final = tuple(v for _, _, v in live)
    status = BUDGET_EXHAUSTED if budget_hit else CONFLUENT
    decoded = tuple(Rule(_dec(l), _dec(r)) for l, r, _ in live)
    return RewriteSystem(p, decoded, status, budget_hit=budget_hit,
                         provenance=prov)


def reduce_with_trace(word: Word, rs: RewriteSystem):
    """The irreducible form of ``word`` and the steps that reach it, in
    completion's sweep order: each sweep applies the rules in index order,
    each at every non-overlapping occurrence from left to right, until a
    sweep changes nothing.  Every step applies to the word the steps before
    it left.  On a confluent system the irreducible form is the unique
    normal form; on a budget-exhausted one it can depend on this order."""
    s, parts = _reduce(_enc(word), rs._enc_rules)
    return _dec(s), tuple(ReductionStep(k, pos) for k, pos, _ in parts)


def reduce(word: Word, rs: RewriteSystem) -> Word:
    """The word rewritten until no rule lhs occurs as a factor, in the order
    of ``reduce_with_trace``."""
    return _dec(_reduce(_enc(word), rs._enc_rules)[0])


def critical_pairs(rs: RewriteSystem):
    """All critical pairs (overlap word, result via rule i, result via rule j)
    of the system, overlaps and containments alike, as words."""
    enc_rules = rs._enc_rules
    out = []
    for li, ri, i in enc_rules:
        for lj, rj, j in enc_rules:
            for k, a, b in _overlap_results(li, ri, lj, rj):
                out.append((_dec(li + lj[k:]), _dec(a), _dec(b)))
            if i != j and lj in li:
                start = 0
                while (pos := li.find(lj, start)) != -1:
                    out.append((_dec(li), _dec(ri),
                                _dec(li[:pos] + rj + li[pos + len(lj):])))
                    start = pos + 1
    return out


def verify_confluence(rs: RewriteSystem):
    """Exhaustive critical-pair scan; returns the unresolved pairs (empty
    exactly when the system is confluent on its overlaps)."""
    bad = []
    for w, a, b in critical_pairs(rs):
        na, nb = reduce(a, rs), reduce(b, rs)
        if na != nb:
            bad.append((w, na, nb))
    return bad


class _Acceptor(dict):
    """The word acceptor of the confluent ``rs``'s packed normal forms
    (Epstein et al., *Word Processing in Groups*; Sims, *Computation with
    Finitely Presented Groups* §3.5).  A normal form's state is its longest
    suffix that is a proper prefix of some lhs.  A lhs that ends in the
    letter read next starts inside the state, so the letter leads nowhere
    when some suffix of state + letter is a lhs, and otherwise to the
    longest suffix of state + letter that is such a prefix.  A state's row,
    its (letter, next state) pairs in letter order, is built the first time
    the state is indexed."""

    def __init__(self, rs: RewriteSystem):
        if rs.status != CONFLUENT:
            raise RewritingError(
                "element enumeration requires a confluent system")
        self.lhss = lhss = frozenset(l for l, _, _ in rs._enc_rules)
        self.prefixes = {""} | {l[:k] for l in lhss for k in range(len(l))}
        self.chars = sorted(_enc(rs.source.alphabet))

    def __missing__(self, q):
        row = self[q] = []
        for ch in self.chars:
            suffixes = [(q + ch)[i:] for i in range(len(q) + 2)]
            if self.lhss.isdisjoint(suffixes):
                row.append((ch, next(filter(self.prefixes.__contains__,
                                            suffixes))))
        return row


def _irreducible_strings(rs: RewriteSystem, max_len: int):
    """The normal forms of the confluent ``rs`` of length <= max_len as
    packed strings, in shortlex order, read off ``_Acceptor`` level by
    level: each word is kept with its state, in a parallel list, and
    extended by the letters of that state's row, in letter order."""
    rows = _Acceptor(rs)
    words, states = [""], [""]
    yield ""
    for _ in range(max_len):
        next_words, next_states = [], []
        for w, q in zip(words, states):
            for ch, s in rows[q]:
                next_words.append(w + ch)
                next_states.append(s)
        if not next_words:
            return
        yield from next_words
        words, states = next_words, next_states


def _normal_form_counts(rs: RewriteSystem, max_len: int):
    """The number of normal forms of the confluent ``rs`` of each length
    0, 1, ..., max_len in turn, counted on the rows of ``_Acceptor``
    without listing a word: each level maps a state to the number of words
    that end in it.  It stops at the first length with none, as every
    prefix of a normal form is one."""
    rows = _Acceptor(rs)
    level = {"": 1}
    yield 1
    for _ in range(max_len):
        nxt = {}
        for q, count in level.items():
            for _, s in rows[q]:
                nxt[s] = nxt.get(s, 0) + count
        if not nxt:
            return
        yield sum(nxt.values())
        level = nxt


def iter_elements(rs: RewriteSystem, max_len: int):
    """``enumerate_elements`` as an iterator: a level of the listing is
    built only when its first word is drawn."""
    return map(_dec, _irreducible_strings(rs, max_len))


def enumerate_elements(rs: RewriteSystem, max_len: int):
    """All irreducible words of length <= max_len, in shortlex order; each is
    the canonical representative of a distinct element.  Requires a confluent
    system."""
    return list(iter_elements(rs, max_len))


def collapsed_normal_forms(rs: RewriteSystem, other: RewriteSystem,
                           max_len: int):
    """The normal forms of the confluent ``rs`` of length <= max_len,
    grouped by their irreducible form under ``other``'s rules, confluent or
    not.  Returns the number of normal forms, the number of groups, and the
    groups of two or more, each a tuple of words in shortlex order, in the
    order of their first members.  Only those groups are decoded.  The
    embedding probe calls it with M's and G(M)'s systems.

    Only a rule whose lhs is over ``rs``'s letters can match a word over
    them.  A normal form of ``rs`` contains no lhs of ``rs``: when each such
    rule's lhs contains one, none matches a normal form, so every normal
    form is its own irreducible form and its own group.  The normal forms
    are then counted by length on the word acceptor's rows
    (``_normal_form_counts``), and none is listed; a count with more digits
    than an int may print raises RewritingError as soon as it gets there.
    Otherwise they are listed off the same acceptor and grouped.  When each
    such rule's rhs is over ``rs``'s letters too, every rewrite keeps the
    word over them, so no other rule ever matches and only these are tried;
    when some rhs is not, all of ``other``'s rules are.  Each group keeps
    only its first member until a second one arrives."""
    letters = set(_enc(rs.source.alphabet))
    rules = tuple(rule for rule in other._enc_rules
                  if letters.issuperset(rule[0]))
    lhss = [l for l, _, _ in rs._enc_rules]
    if all(any(m in l for m in lhss) for l, _, _ in rules):
        # checked level by level, so a count that grows exponentially
        # stops early; 0 digits means Python prints any int
        digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        cap = 10 ** digits if digits else float("inf")
        n = 0
        for count in _normal_form_counts(rs, max_len):
            n += count
            if n >= cap:
                raise RewritingError(
                    f"the count of normal forms has more than {digits} "
                    "digits, too many to print")
        return n, n, []
    if not all(letters.issuperset(r) for _, r, _ in rules):
        rules = other._enc_rules
    first = {}
    groups = {}
    n = 0
    for s in _irreducible_strings(rs, max_len):
        n += 1
        key = _reduce(s, rules)[0]
        # setdefault hands s back only when s opens the group
        f = first.setdefault(key, s)
        if f is not s:
            groups.setdefault(key, [f]).append(s)
    collapsed = sorted(groups.values(), key=lambda g: _sl_key(g[0]))
    return n, len(first), [tuple(map(_dec, g)) for g in collapsed]


# -- word equality --------------------------------------------------------


@dataclass(frozen=True)
class NormalFormCertificate:
    """Both words reduced by a system: the shared irreducible form, when
    nf_u == nf_v, proves them equal; it is their normal form, and differing
    forms prove them distinct, only when the system is confluent."""

    nf_u: Word
    nf_v: Word
    trace_u: tuple
    trace_v: tuple


@dataclass(frozen=True)
class DerivationStep:
    """Apply relation ``relation`` at position ``pos``; forward replaces the
    lhs by the rhs, backward the rhs by the lhs."""

    relation: int
    pos: int
    forward: bool


@dataclass(frozen=True)
class DerivationCertificate:
    """A chain of relation applications from words[0] to words[-1]."""

    words: tuple
    steps: tuple


@dataclass(frozen=True)
class EqualityVerdict:
    value: str
    certificate: object = None
    spent: dict = field(default_factory=dict, compare=False)


def apply_derivation_step(p: Presentation, word: Word,
                          step: DerivationStep) -> Word:
    """The word after one relation application; raises if it does not fit,
    if it names no relation of ``p`` or a position outside the word, or if
    its direction is not exactly a bool."""
    # not isinstance: bool is an int subclass, yet True names no relation
    if not (type(step.relation) is int and type(step.pos) is int):
        raise RewritingError("derivation step indices must be ints")
    if type(step.forward) is not bool:
        raise RewritingError("derivation step direction must be a bool")
    if not (0 <= step.relation < len(p.relations)
            and 0 <= step.pos <= len(word)):
        raise RewritingError("derivation step is out of range")
    rel = p.relations[step.relation]
    old, new = (rel.lhs, rel.rhs) if step.forward else (rel.rhs, rel.lhs)
    if word[step.pos:step.pos + len(old)] != old:
        raise RewritingError("derivation step does not match the word")
    return word[:step.pos] + new + word[step.pos + len(old):]


def replay_derivation(p: Presentation, cert: DerivationCertificate) -> bool:
    """Re-check every step of a derivation against the raw relations: the
    steps applied from the first word must pass through exactly its words."""
    if not cert.words:
        return False
    try:
        return derivation_certificate(p, cert.words[0],
                                      cert.steps).words == cert.words
    except RewritingError:
        return False


def derivation_certificate(p: Presentation, word: Word,
                           steps) -> DerivationCertificate:
    """The chain of words that ``steps`` pass through from ``word``; raises
    RewritingError if a step does not fit."""
    words = [word]
    for step in steps:
        words.append(apply_derivation_step(p, words[-1], step))
    return DerivationCertificate(tuple(words), tuple(steps))


# -- rule provenance ------------------------------------------------------


def _reversed(parts):
    return [(key, off, not fwd) for key, off, fwd in reversed(parts)]


class _Provenance:
    """The proofs completion kept for its rules, expanded into raw relation
    chains on demand.

    A proof is a list of parts (key, offset, forward) applied in turn: key
    ~idx is input relation idx, and key k >= 0 the rule version whose proof
    is ``proofs[k]``.  A rule version's proof rewrites its lhs into its rhs:
    the reversed trace that reduced one side of its equation, the equation's
    own parts, and the trace that reduced the other side; or, for a
    re-reduced rhs, the old version followed by that reduction's trace.  An
    equation from input relation idx is [(~idx, 0, True)], the overlap of
    length k of rule versions v_i and v_j is [(v_i, 0, False), (v_j,
    len(lhs_i) - k, True)], and a killed rule version v is [(v, 0, True)].
    ``final[m]`` is the key of the live version's proof for final rule m.
    Every part of a proof has a smaller key than the proof's own, so
    ``lengths``, the raw steps in each proof, is filled in as each proof is
    added, and expansion needs no recursion.
    """

    def __init__(self):
        self.proofs = []
        self.lengths = []
        self.final = None

    def _steps(self, parts) -> int:
        return sum(self.lengths[k] if k >= 0 else 1 for k, _, _ in parts)

    def add(self, parts) -> int:
        """Keep ``parts`` as the next proof; returns its key."""
        self.lengths.append(self._steps(parts))
        self.proofs.append(parts)
        return len(self.proofs) - 1

    def expand(self, parts, max_steps=None):
        """The raw steps (relation, pos, forward) of ``parts`` applied in
        turn, or None when there are more than ``max_steps``."""
        if max_steps is not None and self._steps(parts) > max_steps:
            return None
        out = []
        stack = list(reversed(parts))
        while stack:
            k, off, fwd = stack.pop()
            if k < 0:
                out.append(DerivationStep(~k, off, fwd))
                continue
            proof = self.proofs[k]
            stack.extend((p, off + o, f == fwd)
                         for p, o, f in (reversed(proof) if fwd else proof))
        return tuple(out)


def _provenance(rs: RewriteSystem) -> _Provenance:
    if rs.provenance is None:
        raise RewritingError("the rewrite system has no completion record")
    return rs.provenance


def rule_derivation(rs: RewriteSystem, idx: int, max_steps=None):
    """Raw relation steps that rewrite ``rs.rules[idx].lhs`` into its rhs,
    over ``rs.source.relations``, expanded from the proofs completion kept
    rather than searched for; the chain is not necessarily shortest.
    Returns None when it has more than ``max_steps`` steps."""
    prov = _provenance(rs)
    if not 0 <= idx < len(rs.rules):
        raise RewritingError(f"no rule {idx}")
    return prov.expand([(prov.final[idx], 0, True)], max_steps)


def traces_derivation(rs: RewriteSystem, trace_u, trace_v, max_steps=None):
    """Raw relation steps from u to v, given ``reduce_with_trace`` traces
    of u and v to the same normal form: each rule step of ``trace_u``
    expanded at its offset, then those of ``trace_v`` in reverse.  Like
    ``rule_derivation``, not necessarily shortest, and None when longer
    than ``max_steps``."""
    prov = _provenance(rs)
    final = prov.final
    parts = [(final[step.rule], step.pos, True) for step in trace_u]
    parts += _reversed([(final[step.rule], step.pos, True)
                        for step in trace_v])
    return prov.expand(parts, max_steps)


def derive_equal(p: Presentation, u: Word, v: Word,
                 budget: int = DEFAULT_EQ_BUDGET) -> EqualityVerdict:
    """Bounded bidirectional search for a derivation u = v over the raw
    relations.  Never answers "distinct": the outcome is equal (with a
    replayable derivation) or unknown once ``budget`` visited words or the
    length cap prune the search.  The two end words count as visited, and no
    other word is visited past ``budget``."""
    rels = []
    for idx, rel in enumerate(p.relations):
        a, b = _enc(rel.lhs), _enc(rel.rhs)
        if a != b:
            rels.append((idx, a, b))
    su, sv = _enc(u), _enc(v)
    maxlen = max(len(su), len(sv)) + LEN_SLACK
    spent = {"visited": 2, "max_word_len": maxlen}

    if su == sv:
        return EqualityVerdict(EQUAL, DerivationCertificate((u,), ()), spent)

    def neighbors(w):
        out = []
        for idx, a, b in rels:
            for old, new, fwd in ((a, b, True), (b, a, False)):
                # an empty ``old`` is found at every position: an insertion
                if len(w) - len(old) + len(new) <= maxlen:
                    start = 0
                    while (pos := w.find(old, start)) != -1:
                        out.append((w[:pos] + new + w[pos + len(old):],
                                    (idx, pos, fwd)))
                        start = pos + 1
        return out

    # parent maps: word -> (parent word, step applied to the parent)
    parents = ({su: None}, {sv: None})
    frontiers = [[su], [sv]]
    meet = None

    while frontiers[0] and frontiers[1] and meet is None:
        side = 0 if len(frontiers[0]) <= len(frontiers[1]) else 1
        here, there = parents[side], parents[1 - side]
        nxt = []
        for w in frontiers[side]:
            for t, step in neighbors(w):
                if t in here:
                    continue
                if spent["visited"] >= budget:
                    return EqualityVerdict(UNKNOWN, None, spent)
                here[t] = (w, step)
                spent["visited"] += 1
                nxt.append(t)
                if t in there:
                    meet = t
                    break
            if meet is not None:
                break
        frontiers[side] = nxt

    if meet is None:
        return EqualityVerdict(UNKNOWN, None, spent)

    def steps_to(side, w):
        """The steps from the side's end word to w."""
        out = []
        while parents[side][w] is not None:
            w, step = parents[side][w]
            out.append(step)
        return out[::-1]

    steps = [DerivationStep(*step) for step in steps_to(0, meet)]
    steps += [DerivationStep(idx, pos, not fwd)
              for idx, pos, fwd in reversed(steps_to(1, meet))]
    return EqualityVerdict(EQUAL, derivation_certificate(p, u, steps), spent)


def equal_words(system_or_presentation, u: Word, v: Word,
                budget: int = DEFAULT_EQ_BUDGET) -> EqualityVerdict:
    """Decide whether two words name the same element.

    Given a confluent rewrite system the verdict is always decisive and the
    certificate is the normal-form comparison.  Given a presentation, or a
    system whose completion ran out of budget, falls back to the bounded
    derivation search and may return unknown.
    """
    arg = system_or_presentation
    if isinstance(arg, RewriteSystem):
        if arg.status == CONFLUENT:
            nf_u, trace_u = reduce_with_trace(u, arg)
            nf_v, trace_v = reduce_with_trace(v, arg)
            cert = NormalFormCertificate(nf_u, nf_v, trace_u, trace_v)
            value = EQUAL if nf_u == nf_v else DISTINCT
            return EqualityVerdict(value, cert, {"reductions": 2})
        arg = arg.source
    return derive_equal(arg, u, v, budget)
