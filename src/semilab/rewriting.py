"""Shortlex string rewriting for monoid presentations.

Relations are oriented into length-then-lexicographic (shortlex) decreasing
rules, and Knuth-Bendix completion resolves critical pairs until the system
is confluent or a budget trips.  Completion is a semi-decision procedure, so
budgets are first-class: exhaustion is reported as a status, never a wrong
answer.  A confluent system decides word equality by normal forms; otherwise
a bounded bidirectional search over raw relation applications can still
certify equality (with a replayable derivation) or give up with "unknown".

Completion also records where each rule came from: an input relation, a
critical pair of two rule versions, a rule it killed and requeued, or a
re-reduced right-hand side.  ``rule_derivation`` expands those records into
raw relation steps, so a reduction trace becomes a replayable derivation
without any search.  Such derivations are read off completion's proofs and
are not necessarily shortest; the search finds shortest ones.

Internally words are packed one letter per character into ordinary strings,
so factor matching and replacement run on the C string machinery; the
character code of a letter is its shortlex rank, which makes plain string
comparison agree with the letter order.  One reduction engine, ``_reduce``,
rewrites such strings: completion reduces with it, the completion record
replays those reductions with it, and ``reduce_with_trace`` traces with it,
so all three apply rules in the same sweep order.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

from .presentations import EMPTY, Letter, Presentation, Word

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

# completion's rule events and equation origins (see _Provenance)
_ADD, _RHS, _KILL = "add", "rhs", "kill"
_REL, _OVERLAP, _RULE = "relation", "overlap", "rule"


class RewritingError(ValueError):
    """Misuse of the rewriting machinery (bad budget, non-confluent input...)."""


class _Codec:
    """Packs words into strings; character order realizes the letter order."""

    def __init__(self, p: Presentation):
        self._letter = {chr(_ENC_BASE + 2 * bid + barred): Letter(bid, barred)
                        for bid in range(len(p.names))
                        for barred in (False, True)}
        self._char = {letter: ch for ch, letter in self._letter.items()}

    def enc(self, word: Word) -> str:
        return "".join(map(self._char.__getitem__, word))

    def dec(self, s: str) -> Word:
        return tuple(map(self._letter.__getitem__, s))


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
    ``"max_rules"`` or ``"max_rule_len"``.  ``provenance`` is completion's
    record of where each rule came from; it backs ``rule_derivation``.
    Neither takes part in equality.
    """

    source: Presentation
    rules: tuple
    status: str
    budget_hit: str | None = field(default=None, compare=False)
    provenance: object = field(default=None, compare=False, repr=False)

    @cached_property
    def _codec(self) -> _Codec:
        return _Codec(self.source)

    @cached_property
    def _enc_rules(self) -> tuple:
        """The rules as ``_reduce`` takes them: (lhs, rhs, rule index)."""
        c = self._codec
        return tuple((c.enc(r.lhs), c.enc(r.rhs), k)
                     for k, r in enumerate(self.rules))


def _reduce(s, rules):
    """Rewrite ``s`` with ``rules``, (lhs, rhs, key) triples in order, until
    no lhs occurs.  Each sweep takes the rules in turn and replaces every
    occurrence of a lhs, left to right and without overlaps (``str.replace``);
    sweeps repeat until one changes nothing.  Returns the reduced string and
    the applied parts (key, offset, True), in order, each offset into the
    string as the parts before it left it."""
    parts = []
    while True:
        t = s
        for l, r, key in rules:
            if l not in t:
                continue
            pos, shift, grow = t.find(l), 0, len(r) - len(l)
            while pos != -1:
                parts.append((key, pos + shift, True))
                shift += grow
                pos = t.find(l, pos + len(l))
            t = t.replace(l, r)
        if t == s:
            return s, parts
        s = t


def _overlaps(li: str, lj: str) -> list:
    """Lengths k, ascending, of the proper overlaps where a suffix of ``li``
    is a prefix of ``lj``."""
    return [k for k in range(1, min(len(li), len(lj)))
            if lj.startswith(li[-k:])]


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
    The returned system is interreduced either way, and records where each
    rule came from (see ``rule_derivation``).
    """
    if max_rules <= 0 or max_len <= 0:
        raise RewritingError("completion budgets must be positive")
    codec = _Codec(p)

    # live rules in index order: index -> (lhs, rhs, stamp of the event
    # that set rhs), the shape _Provenance._state gives
    rules = {}
    n_added = 0
    budget_hit = None
    tasks = deque()     # rule-index pairs whose overlaps are unexamined
    pending = deque()   # (a, b, origin): equations awaiting orientation
    events = []         # rule history, see _Provenance

    def process_pending():
        nonlocal n_added, budget_hit
        while pending:
            a, b, origin = pending.popleft()
            oriented = _orient(_reduce(a, rules.values())[0],
                               _reduce(b, rules.values())[0])
            if oriented is None:
                continue
            l, r = oriented
            if len(l) > max_len:
                budget_hit = "max_rule_len"
                return False
            if n_added >= max_rules:
                budget_hit = "max_rules"
                return False
            k = n_added
            n_added += 1
            older = list(rules.items())
            rules[k] = (l, r, len(events))
            events.append((_ADD, k, l, r, a, b, origin))
            for i, (li, ri, si) in older:
                if l in li:
                    del rules[i]
                    pending.append((li, ri, (_RULE, si)))
                    events.append((_KILL, i))
                elif l in ri:
                    ri = _reduce(ri, rules.values())[0]
                    rules[i] = (li, ri, len(events))
                    events.append((_RHS, i, ri, si))
            # k is new, so none of its pairs has been queued before
            for j in rules:
                tasks.extend(((k, j), (j, k)) if j != k else ((k, k),))
        return True

    for idx, rel in enumerate(p.relations):
        pending.append((codec.enc(rel.lhs), codec.enc(rel.rhs), (_REL, idx)))
    ok = process_pending()

    while ok and tasks:
        i, j = tasks.popleft()
        if i not in rules or j not in rules:
            continue
        li, ri, si = rules[i]
        lj, rj, sj = rules[j]
        # a longer overlap gives a shorter overlap word li + lj[k:]
        for k in reversed(_overlaps(li, lj)):
            pending.append((ri + lj[k:], li[:-k] + rj, (_OVERLAP, si, sj, k)))
        ok = process_pending()

    final = _tidy(rules, events)
    status = BUDGET_EXHAUSTED if budget_hit else CONFLUENT
    decoded = tuple(Rule(codec.dec(l), codec.dec(r)) for l, r, _ in final)
    provenance = _Provenance(events, tuple((stamp, r)
                                           for _, r, stamp in final))
    return RewriteSystem(p, decoded, status, budget_hit=budget_hit,
                         provenance=provenance)


def _tidy(rules, events):
    """Final interreduction: drop rules whose lhs contains another live lhs,
    normalize rhs.  Returns (lhs, rhs, stamp) in shortlex order of the
    sides."""
    for k, (l, _, _) in list(rules.items()):
        if any(lo in l for ko, (lo, _, _) in rules.items() if ko != k):
            del rules[k]
            events.append((_KILL, k))
    out = [(l, _reduce(r, rules.values())[0], stamp)
           for l, r, stamp in rules.values()]
    out.sort(key=lambda lrs: (_sl_key(lrs[0]), _sl_key(lrs[1])))
    return out


def reduce_with_trace(word: Word, rs: RewriteSystem):
    """The irreducible form of ``word`` and the steps that reach it, in
    completion's sweep order: each sweep applies the rules in index order,
    each at every non-overlapping occurrence from left to right, until a
    sweep changes nothing.  Every step applies to the word the steps before
    it left.  On a confluent system the irreducible form is the unique
    normal form; on a budget-exhausted one it can depend on this order."""
    s, parts = _reduce(rs._codec.enc(word), rs._enc_rules)
    return rs._codec.dec(s), tuple(ReductionStep(k, pos)
                                   for k, pos, _ in parts)


def reduce(word: Word, rs: RewriteSystem) -> Word:
    """The word rewritten until no rule lhs occurs as a factor, in the order
    of ``reduce_with_trace``."""
    return rs._codec.dec(_reduce(rs._codec.enc(word), rs._enc_rules)[0])


def critical_pairs(rs: RewriteSystem):
    """All critical pairs (overlap word, result via rule i, result via rule j)
    of the system, overlaps and containments alike, as words."""
    enc_rules = rs._enc_rules
    dec = rs._codec.dec
    out = []
    for li, ri, i in enc_rules:
        for lj, rj, j in enc_rules:
            for k in _overlaps(li, lj):
                out.append((dec(li + lj[k:]),
                            dec(ri + lj[k:]),
                            dec(li[:-k] + rj)))
            if i != j and lj in li:
                start = 0
                while (pos := li.find(lj, start)) != -1:
                    out.append((dec(li), dec(ri),
                                dec(li[:pos] + rj + li[pos + len(lj):])))
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


def enumerate_elements(rs: RewriteSystem, max_len: int):
    """All irreducible words of length <= max_len, in shortlex order; each is
    the canonical representative of a distinct element.  Requires a confluent
    system."""
    if rs.status != CONFLUENT:
        raise RewritingError("element enumeration requires a confluent system")
    lhss = tuple(l for l, _, _ in rs._enc_rules)
    chars = sorted(rs._codec.enc(rs.source.alphabet))
    dec = rs._codec.dec
    out = [EMPTY]
    level = [""]
    for _ in range(max_len):
        nxt = []
        for w in level:
            for ch in chars:
                t = w + ch
                if any(t.endswith(l) for l in lhss):
                    continue
                nxt.append(t)
        out.extend(dec(t) for t in nxt)
        level = nxt
    return out


# -- word equality --------------------------------------------------------


@dataclass(frozen=True)
class NormalFormCertificate:
    """Both words reduced by a confluent system; equal verdicts have
    nf_u == nf_v, distinct verdicts differ."""

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
    """The word after one relation application; raises if it does not fit."""
    rel = p.relations[step.relation]
    old, new = (rel.lhs, rel.rhs) if step.forward else (rel.rhs, rel.lhs)
    if word[step.pos:step.pos + len(old)] != old:
        raise RewritingError("derivation step does not match the word")
    return word[:step.pos] + new + word[step.pos + len(old):]


def replay_derivation(p: Presentation, cert: DerivationCertificate) -> bool:
    """Re-check every step of a derivation against the raw relations."""
    if len(cert.words) != len(cert.steps) + 1:
        return False
    for word, step, nxt in zip(cert.words, cert.steps, cert.words[1:]):
        try:
            if apply_derivation_step(p, word, step) != nxt:
                return False
        except (RewritingError, IndexError):
            return False
    return True


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
    """Completion's record of where each rule came from, expanded into raw
    relation chains on demand.

    ``events`` is kb_complete's rule history; an event's index is its stamp.
    ("add", k, lhs, rhs, a, b, origin) creates rule k from the equation
    a = b, whose reduced sides are lhs and rhs; ("rhs", i, rhs, prev)
    re-reduces the rhs of rule i that event ``prev`` set; ("kill", i) drops
    rule i.  The rules in force at stamp t are those the events before t
    leave alive, each with its latest rhs, and every reduction completion
    made at stamp t used exactly those, so it can be replayed here.  An
    origin is ("relation", idx), ("overlap", s_i, s_j, k), the overlap of
    length k of the rule versions set by events s_i and s_j, or ("rule", s),
    the killed rule version set by event s.  ``final`` holds, per final
    rule, the stamp of its rule's last version and the final rhs, which the
    rules in force at the end reduce that version's rhs to.

    A proof is a list of parts (key, offset, forward) applied in turn: key
    ~idx is input relation idx, key s < len(events) the rule version set by
    event s, and key len(events) + m final rule m.  Every part of a proof
    has a smaller key than the proof's own, so proofs are measured and
    expanded bottom-up, without recursion.
    """

    def __init__(self, events, final):
        self.events = events
        self.final = final
        self._sides = {}    # version or final key -> (lhs, rhs)
        self._rules = []    # per rule index: [lhs, born, died, versions]
        for stamp, event in enumerate(events):
            if event[0] == _ADD:
                self._rules.append([event[2], stamp, None, [stamp]])
                self._sides[stamp] = (event[2], event[3])
            elif event[0] == _RHS:
                rule = self._rules[event[1]]
                rule[3].append(stamp)
                self._sides[stamp] = (rule[0], event[2])
            else:
                self._rules[event[1]][2] = stamp
        end = len(events)
        for m, (stamp, rhs) in enumerate(final):
            self._sides[end + m] = (self._sides[stamp][0], rhs)
        self._proofs = {}
        self._lengths = {}

    def _state(self, t):
        """The rules in force at stamp t, as (lhs, rhs, version stamp)."""
        out = []
        for lhs, born, died, versions in self._rules:
            if born >= t:
                break
            if died is None or died >= t:
                v = versions[bisect_left(versions, t) - 1]
                out.append((lhs, self._sides[v][1], v))
        return out

    def _origin(self, origin):
        if origin[0] == _REL:
            return [(~origin[1], 0, True)]
        if origin[0] == _RULE:
            return [(origin[1], 0, True)]
        _, si, sj, k = origin
        return [(si, 0, False), (sj, len(self._sides[si][0]) - k, True)]

    def _proof(self, key):
        end = len(self.events)
        lhs, rhs = self._sides[key]
        if key >= end:
            prev, t = self.final[key - end][0], end
        elif self.events[key][0] == _RHS:
            prev, t = self.events[key][3], key
        else:
            _, _, _, _, a, b, origin = self.events[key]
            state = self._state(key)
            ra, trace_a = _reduce(a, state)
            rb, trace_b = _reduce(b, state)
            eq = self._origin(origin)
            if (ra, rb) == (lhs, rhs):
                return _reversed(trace_a) + eq + trace_b
            if (rb, ra) == (lhs, rhs):
                return _reversed(trace_b) + _reversed(eq) + trace_a
            raise RewritingError("completion record does not replay")
        got, trace = _reduce(self._sides[prev][1], self._state(t))
        if got != rhs:
            raise RewritingError("completion record does not replay")
        return [(prev, 0, True)] + trace

    def length(self, key) -> int:
        """Raw steps in the proof of ``key``; builds the proofs it uses."""
        todo, found = [key], set()
        while todo:
            k = todo.pop()
            if k < 0 or k in self._lengths or k in found:
                continue
            found.add(k)
            if k not in self._proofs:
                self._proofs[k] = self._proof(k)
            todo.extend(part[0] for part in self._proofs[k])
        lengths = self._lengths
        for k in sorted(found):
            lengths[k] = sum(lengths[p] if p >= 0 else 1
                             for p, _, _ in self._proofs[k])
        return lengths[key]

    def expand(self, parts, max_steps=None):
        """The raw steps (relation, pos, forward) of ``parts`` applied in
        turn, or None when there are more than ``max_steps``."""
        total = sum(self.length(k) for k, _, _ in parts)
        if max_steps is not None and total > max_steps:
            return None
        out = []
        stack = list(reversed(parts))
        while stack:
            k, off, fwd = stack.pop()
            if k < 0:
                out.append(DerivationStep(~k, off, fwd))
                continue
            proof = self._proofs[k]
            stack.extend((p, off + o, f == fwd)
                         for p, o, f in (reversed(proof) if fwd else proof))
        return tuple(out)


def _provenance(rs: RewriteSystem) -> _Provenance:
    if rs.provenance is None:
        raise RewritingError("the rewrite system has no completion record")
    return rs.provenance


def rule_derivation(rs: RewriteSystem, idx: int, max_steps=None):
    """Raw relation steps that rewrite ``rs.rules[idx].lhs`` into its rhs,
    over ``rs.source.relations``, read off the completion record rather
    than searched for; the chain is not necessarily shortest.  Returns None
    when it has more than ``max_steps`` steps.  Proofs of the rules a chain
    uses are built on first use and kept on ``rs``."""
    prov = _provenance(rs)
    if not 0 <= idx < len(rs.rules):
        raise RewritingError(f"no rule {idx}")
    return prov.expand([(len(prov.events) + idx, 0, True)], max_steps)


def traces_derivation(rs: RewriteSystem, trace_u, trace_v, max_steps=None):
    """Raw relation steps from u to v, given ``reduce_with_trace`` traces
    of u and v to the same normal form: each rule step of ``trace_u``
    expanded at its offset, then those of ``trace_v`` in reverse.  Like
    ``rule_derivation``, not necessarily shortest, and None when longer
    than ``max_steps``."""
    prov = _provenance(rs)
    end = len(prov.events)
    parts = [(end + step.rule, step.pos, True) for step in trace_u]
    parts += _reversed([(end + step.rule, step.pos, True)
                        for step in trace_v])
    return prov.expand(parts, max_steps)


def derive_equal(p: Presentation, u: Word, v: Word,
                 budget: int = DEFAULT_EQ_BUDGET) -> EqualityVerdict:
    """Bounded bidirectional search for a derivation u = v over the raw
    relations.  Never answers "distinct": the outcome is equal (with a
    replayable derivation) or unknown once ``budget`` visited words or the
    length cap prune the search.  The two end words count as visited, and no
    other word is visited past ``budget``."""
    codec = _Codec(p)
    rels = []
    for idx, rel in enumerate(p.relations):
        a, b = codec.enc(rel.lhs), codec.enc(rel.rhs)
        if a != b:
            rels.append((idx, a, b))
    su, sv = codec.enc(u), codec.enc(v)
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
