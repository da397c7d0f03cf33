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
comparison agree with the letter order.
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
DEFAULT_LEN_SLACK = 4

_ENC_BASE = 33

# completion's rule events and equation origins (see _Provenance)
_ADD, _RHS, _KILL = "add", "rhs", "kill"
_REL, _OVERLAP, _RULE = "relation", "overlap", "rule"


class RewritingError(ValueError):
    """Misuse of the rewriting machinery (bad order, non-confluent input...)."""


class _Codec:
    """Packs words into strings; character order realizes the letter order."""

    def __init__(self, p: Presentation, letter_order=None):
        n = len(p.names)
        order = tuple(letter_order) if letter_order is not None \
            else tuple(range(n))
        if sorted(order) != list(range(n)):
            raise RewritingError("letter_order must be a permutation of the "
                                 "base letter ids")
        self.order = order
        self._pos = {bid: i for i, bid in enumerate(order)}

    def enc_letter(self, letter: Letter) -> str:
        return chr(_ENC_BASE + 2 * self._pos[letter.id]
                   + (1 if letter.barred else 0))

    def enc(self, word: Word) -> str:
        return "".join(self.enc_letter(letter) for letter in word)

    def dec(self, s: str) -> Word:
        out = []
        for ch in s:
            rank = ord(ch) - _ENC_BASE
            out.append(Letter(self.order[rank // 2], bool(rank % 2)))
        return tuple(out)


def _sl_key(s: str):
    return (len(s), s)


def shortlex_less(u: Word, v: Word, order=None) -> bool:
    """True iff u precedes v in shortlex: shorter first, letter order breaking
    length ties (``order`` is a permutation of base letter ids)."""
    if len(u) != len(v):
        return len(u) < len(v)
    if order is None:
        ku = tuple(l.rank for l in u)
        kv = tuple(l.rank for l in v)
    else:
        pos = {bid: i for i, bid in enumerate(order)}
        ku = tuple(2 * pos[l.id] + l.barred for l in u)
        kv = tuple(2 * pos[l.id] + l.barred for l in v)
    return ku < kv


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
    consequences of the relations, just not necessarily complete).
    ``provenance`` is completion's record of where each rule came from; it
    backs ``rule_derivation`` and takes no part in equality.
    """

    source: Presentation
    rules: tuple
    status: str
    letter_order: tuple
    provenance: object = field(default=None, compare=False, repr=False)

    @cached_property
    def _codec(self) -> _Codec:
        return _Codec(self.source, self.letter_order)

    @cached_property
    def _enc_rules(self) -> tuple:
        c = self._codec
        return tuple((c.enc(r.lhs), c.enc(r.rhs)) for r in self.rules)

    @cached_property
    def _alphabet_chars(self) -> tuple:
        return tuple(sorted(self._codec.enc_letter(l)
                            for l in self.source.alphabet))


def _orient(a: str, b: str):
    if a == b:
        return None
    return (a, b) if _sl_key(a) > _sl_key(b) else (b, a)


def kb_complete(p: Presentation, max_rules: int = DEFAULT_MAX_RULES,
                max_len: int = DEFAULT_MAX_RULE_LEN,
                letter_order=None) -> RewriteSystem:
    """Knuth-Bendix completion under shortlex, with budgets.

    Relations are oriented and critical pairs resolved FIFO (smallest overlap
    first on ties) until no unresolved pair remains, or until more than
    ``max_rules`` rules have been added or a rule side would exceed
    ``max_len`` letters.  The returned system is interreduced either way,
    and records where each rule came from (see ``rule_derivation``).
    """
    if max_rules <= 0 or max_len <= 0:
        raise RewritingError("completion budgets must be positive")
    codec = _Codec(p, letter_order)

    rules = []          # [lhs, rhs, alive]
    n_added = 0
    budget_hit = False
    tasks = deque()     # rule-index pairs whose overlaps are unexamined
    queued = set()
    pending = deque()   # (a, b, origin): equations awaiting orientation
    events = []         # rule history, see _Provenance
    current = []        # rule index -> stamp of the event that set its rhs

    def reduce_enc(s, skip=None):
        while True:
            t = s
            for k, (l, r, alive) in enumerate(rules):
                if alive and k != skip and l in t:
                    t = t.replace(l, r)
            if t == s:
                return s
            s = t

    def process_pending():
        nonlocal n_added, budget_hit
        while pending:
            a, b, origin = pending.popleft()
            oriented = _orient(reduce_enc(a), reduce_enc(b))
            if oriented is None:
                continue
            l, r = oriented
            if len(l) > max_len:
                budget_hit = True
                return False
            if n_added >= max_rules:
                budget_hit = True
                return False
            n_added += 1
            k = len(rules)
            current.append(len(events))
            events.append((_ADD, k, l, r, a, b, origin))
            rules.append([l, r, True])
            for i in range(k):
                li, ri, alive = rules[i]
                if not alive:
                    continue
                if l in li:
                    rules[i][2] = False
                    pending.append((li, ri, (_RULE, current[i])))
                    events.append((_KILL, i))
                elif l in ri:
                    rules[i][1] = reduce_enc(ri)
                    events.append((_RHS, i, rules[i][1], current[i]))
                    current[i] = len(events) - 1
            for j in range(len(rules)):
                if not rules[j][2]:
                    continue
                for pair in ((k, j), (j, k)) if j != k else ((k, k),):
                    if pair not in queued:
                        queued.add(pair)
                        tasks.append(pair)
        return True

    for idx, rel in enumerate(p.relations):
        pending.append((codec.enc(rel.lhs), codec.enc(rel.rhs), (_REL, idx)))
    ok = process_pending()

    while ok and tasks:
        i, j = tasks.popleft()
        if not (rules[i][2] and rules[j][2]):
            continue
        li, ri = rules[i][0], rules[i][1]
        lj, rj = rules[j][0], rules[j][1]
        cps = []
        for k in range(1, min(len(li), len(lj))):
            if lj.startswith(li[-k:]):
                cps.append((li + lj[k:], ri + lj[k:], li[:-k] + rj,
                            (_OVERLAP, current[i], current[j], k)))
        cps.sort(key=lambda t: _sl_key(t[0]))
        for _, a, b, origin in cps:
            pending.append((a, b, origin))
        ok = process_pending()

    final = _tidy(rules, reduce_enc, events)
    status = BUDGET_EXHAUSTED if budget_hit else CONFLUENT
    decoded = tuple(Rule(codec.dec(l), codec.dec(r)) for l, r, _ in final)
    provenance = _Provenance(events, tuple((current[k], r)
                                           for _, r, k in final))
    return RewriteSystem(p, decoded, status, codec.order, provenance)


def _tidy(rules, reduce_enc, events):
    """Final interreduction: drop rules with reducible lhs, normalize rhs.
    Returns (lhs, rhs, rule index) in shortlex order of the sides."""
    for k, (l, r, alive) in enumerate(rules):
        if not alive:
            continue
        if reduce_enc(l, skip=k) != l:
            rules[k][2] = False
            events.append((_KILL, k))
    out = []
    for k, (l, r, alive) in enumerate(rules):
        if alive:
            out.append((l, reduce_enc(r), k))
    out.sort(key=lambda lrk: (_sl_key(lrk[0]), _sl_key(lrk[1])))
    return out


def _leftmost_step(s, enc_rules):
    best_pos, best_idx = -1, -1
    for idx, (l, _) in enumerate(enc_rules):
        pos = s.find(l)
        if pos != -1 and (best_pos == -1 or pos < best_pos):
            best_pos, best_idx = pos, idx
    return (best_pos, best_idx) if best_idx != -1 else None


def reduce_with_trace(word: Word, rs: RewriteSystem):
    """Deterministic reduction (leftmost match, lowest rule index on ties);
    returns the irreducible word and the applied steps."""
    s = rs._codec.enc(word)
    enc_rules = rs._enc_rules
    steps = []
    while True:
        hit = _leftmost_step(s, enc_rules)
        if hit is None:
            break
        pos, idx = hit
        l, r = enc_rules[idx]
        s = s[:pos] + r + s[pos + len(l):]
        steps.append(ReductionStep(idx, pos))
    return rs._codec.dec(s), tuple(steps)


def reduce(word: Word, rs: RewriteSystem) -> Word:
    """The word rewritten until no rule lhs occurs as a factor."""
    return reduce_with_trace(word, rs)[0]


def critical_pairs(rs: RewriteSystem):
    """All critical pairs (overlap word, result via rule i, result via rule j)
    of the system, overlaps and containments alike, as words."""
    enc_rules = rs._enc_rules
    dec = rs._codec.dec
    out = []
    for i, (li, ri) in enumerate(enc_rules):
        for j, (lj, rj) in enumerate(enc_rules):
            for k in range(1, min(len(li), len(lj))):
                if lj.startswith(li[-k:]):
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
    lhss = tuple(l for l, _ in rs._enc_rules)
    chars = rs._alphabet_chars
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


def _replay_reduce(s, state):
    """kb_complete's reduce_enc over ``state``, (lhs, rhs, stamp) in rule
    order, with each rule application recorded as a proof part."""
    parts = []
    while True:
        t = s
        for l, r, stamp in state:
            pos = t.find(l)
            if pos == -1:
                continue
            shift, grow = 0, len(r) - len(l)
            while pos != -1:    # str.replace: non-overlapping, left to right
                parts.append((stamp, pos + shift, True))
                shift += grow
                pos = t.find(l, pos + len(l))
            t = t.replace(l, r)
        if t == s:
            return s, parts
        s = t


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
            ra, trace_a = _replay_reduce(a, state)
            rb, trace_b = _replay_reduce(b, state)
            eq = self._origin(origin)
            if (ra, rb) == (lhs, rhs):
                return _reversed(trace_a) + eq + trace_b
            if (rb, ra) == (lhs, rhs):
                return _reversed(trace_b) + _reversed(eq) + trace_a
            raise RewritingError("completion record does not replay")
        got, trace = _replay_reduce(self._sides[prev][1], self._state(t))
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
                 budget: int = DEFAULT_EQ_BUDGET,
                 len_slack: int = DEFAULT_LEN_SLACK,
                 letter_order=None) -> EqualityVerdict:
    """Bounded bidirectional search for a derivation u = v over the raw
    relations.  Never answers "distinct": the outcome is equal (with a
    replayable derivation) or unknown once ``budget`` visited words or the
    length cap prune the search."""
    codec = _Codec(p, letter_order)
    rels = []
    for idx, rel in enumerate(p.relations):
        a, b = codec.enc(rel.lhs), codec.enc(rel.rhs)
        if a != b:
            rels.append((idx, a, b))
    su, sv = codec.enc(u), codec.enc(v)
    maxlen = max(len(su), len(sv)) + len_slack
    spent = {"visited": 2, "max_word_len": maxlen}

    if su == sv:
        return EqualityVerdict(EQUAL, DerivationCertificate((u,), ()), spent)

    def neighbors(w):
        out = []
        for idx, a, b in rels:
            for old, new, fwd in ((a, b, True), (b, a, False)):
                if not old:
                    if len(w) + len(new) <= maxlen:
                        for pos in range(len(w) + 1):
                            out.append((w[:pos] + new + w[pos:],
                                        (idx, pos, fwd)))
                elif len(w) - len(old) + len(new) <= maxlen:
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
                here[t] = (w, step)
                spent["visited"] += 1
                nxt.append(t)
                if t in there:
                    meet = t
                    break
                if spent["visited"] >= budget:
                    return EqualityVerdict(UNKNOWN, None, spent)
            if meet is not None:
                break
        frontiers[side] = nxt

    if meet is None:
        return EqualityVerdict(UNKNOWN, None, spent)

    def path_to(side, w):
        chain = []
        while parents[side][w] is not None:
            parent, step = parents[side][w]
            chain.append((parent, step, w))
            w = parent
        chain.reverse()
        return chain

    words = [su]
    steps = []
    for _, step, child in path_to(0, meet):
        steps.append(DerivationStep(*step))
        words.append(child)
    for parent, (idx, pos, fwd), _ in reversed(path_to(1, meet)):
        steps.append(DerivationStep(idx, pos, not fwd))
        words.append(parent)

    cert = DerivationCertificate(tuple(codec.dec(w) for w in words),
                                 tuple(steps))
    return EqualityVerdict(EQUAL, cert, spent)


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
        return derive_equal(arg.source, u, v, budget,
                            letter_order=arg.letter_order)
    return derive_equal(arg, u, v, budget)
