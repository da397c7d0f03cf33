"""Monoid presentations: alphabets, words, mirrored copies, free products,
and the group-completion builder.

Words are tuples of letters and the empty tuple is the identity, so every
presentation here is a monoid presentation.  Relations are stored unoriented;
turning them into rewrite rules is the rewriting module's concern.  The group
completion of a plain presentation adjoins a mirrored (barred) alphabet
carrying the reversed relations, plus a two-sided inverse relation for every
letter; the result presents a group.

Text format (one presentation per file)::

    # comment
    letters: a b c        alphabet in order; a trailing apostrophe marks a
                          barred letter (a' is the mirror of a)
    kind: plain-monoid    optional; or group-completion
    rel: a b = b a        relation, letters space-separated; 1 = empty word
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

PLAIN = "plain-monoid"
GROUP_COMPLETION = "group-completion"

_KINDS = (PLAIN, GROUP_COMPLETION)
_IDENTITY_TOKEN = "1"


class PresentationError(ValueError):
    """Structurally invalid presentation, letter, or word."""


class ParseError(PresentationError):
    """Malformed presentation text; knows the offending line."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class Letter(NamedTuple):
    """One alphabet letter: an index into the base-name table plus a mirror
    flag.  A letter and its barred partner share ``id`` and differ in
    ``barred``; sort order puts each barred letter right after its partner.
    A letter is a plain tuple, so it hashes and compares as one and equals
    the tuple ``(id, barred)``."""

    id: int
    barred: bool = False

    @property
    def rank(self) -> int:
        return 2 * self.id + (1 if self.barred else 0)

    def bar(self) -> "Letter":
        return Letter(self.id, not self.barred)


Word = tuple  # tuple[Letter, ...]

EMPTY: Word = ()


def reverse(word: Word) -> Word:
    """Letters of ``word`` in reverse order (an involutive anti-homomorphism
    of concatenation)."""
    return word[::-1]


@dataclass(frozen=True)
class Relation:
    """An unoriented defining relation lhs = rhs."""

    lhs: Word
    rhs: Word


def _valid_name(name: str) -> bool:
    if not name or name == _IDENTITY_TOKEN:
        return False
    return not any(c.isspace() or c in "#='" for c in name)


@dataclass(frozen=True)
class Presentation:
    """An ordered alphabet plus unoriented relations.

    ``names`` holds the base (unbarred) letter names in declaration order;
    ``alphabet`` lists the letters that actually exist, in canonical order
    (each barred letter immediately after its unbarred partner).
    """

    names: tuple
    alphabet: tuple
    relations: tuple
    kind: str = PLAIN

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise PresentationError(f"unknown presentation kind {self.kind!r}")
        if len(set(self.names)) != len(self.names):
            raise PresentationError("duplicate base letter name")
        for name in self.names:
            if not _valid_name(name):
                raise PresentationError(f"invalid letter name {name!r}")
        seen = set()
        for letter in self.alphabet:
            if not 0 <= letter.id < len(self.names):
                raise PresentationError(f"letter id {letter.id} out of range")
            if letter in seen:
                raise PresentationError(
                    f"duplicate letter {self.letter_str(letter)!r}")
            seen.add(letter)
        ranks = [letter.rank for letter in self.alphabet]
        if ranks != sorted(ranks):
            raise PresentationError("alphabet not in canonical order")
        for rel in self.relations:
            for letter in rel.lhs + rel.rhs:
                if letter not in seen:
                    raise PresentationError(
                        "relation uses a letter outside the alphabet")
        if self.kind == GROUP_COMPLETION:
            pairs = {(r.lhs, r.rhs) for r in self.relations}
            for letter in self.alphabet:
                if letter.barred:
                    continue
                a, ab = letter, letter.bar()
                for lhs in ((a, ab), (ab, a)):
                    if (lhs, EMPTY) not in pairs and (EMPTY, lhs) not in pairs:
                        raise PresentationError(
                            "group-completion presentation is missing the "
                            f"inverse relation for {self.letter_str(a)!r}")

    # -- display and parsing helpers ------------------------------------

    def letter_str(self, letter: Letter) -> str:
        return self.names[letter.id] + ("'" if letter.barred else "")

    def word_str(self, word: Word) -> str:
        if not word:
            return _IDENTITY_TOKEN
        return " ".join(self.letter_str(letter) for letter in word)

    def letter(self, token: str) -> Letter:
        barred = token.endswith("'")
        base = token[:-1] if barred else token
        try:
            letter = Letter(self.names.index(base), barred)
        except ValueError:
            raise PresentationError(f"unknown letter {token!r}") from None
        if letter not in self.alphabet:
            raise PresentationError(f"unknown letter {token!r}")
        return letter

    def word(self, text: str) -> Word:
        tokens = text.split()
        if tokens == [_IDENTITY_TOKEN]:
            return EMPTY
        return tuple(self.letter(token) for token in tokens)


def bar_copy(p: Presentation) -> Presentation:
    """The anti-isomorphic mirror of a plain presentation: every letter is
    replaced by its barred partner and every relation side is reversed."""
    if p.kind != PLAIN:
        raise PresentationError("bar_copy requires a plain-monoid presentation")
    if any(letter.barred for letter in p.alphabet):
        raise PresentationError("bar_copy input already contains barred letters")

    def mirror(word):
        return tuple(letter.bar() for letter in reversed(word))

    alphabet = tuple(letter.bar() for letter in p.alphabet)
    relations = tuple(Relation(mirror(r.lhs), mirror(r.rhs)) for r in p.relations)
    return Presentation(p.names, alphabet, relations, PLAIN)


def free_product(p: Presentation, q: Presentation) -> Presentation:
    """Monoid free product: union alphabet, union of relation sets, the two
    identities amalgamated (there is only ever the one empty word)."""
    p_keys = {(p.names[l.id], l.barred) for l in p.alphabet}
    q_keys = {(q.names[l.id], l.barred) for l in q.alphabet}
    clash = sorted(name + ("'" if barred else "")
                   for name, barred in p_keys & q_keys)
    if clash:
        raise PresentationError(f"alphabet collision: {', '.join(clash)}")

    names = list(p.names)
    for name in q.names:
        if name not in names:
            names.append(name)
    remap = {i: names.index(name) for i, name in enumerate(q.names)}

    def conv(letter):
        return Letter(remap[letter.id], letter.barred)

    def conv_word(word):
        return tuple(conv(letter) for letter in word)

    alphabet = sorted(set(p.alphabet) | {conv(l) for l in q.alphabet})
    relations = p.relations + tuple(
        Relation(conv_word(r.lhs), conv_word(r.rhs)) for r in q.relations)
    return Presentation(tuple(names), tuple(alphabet), relations, PLAIN)


def build_gm(p: Presentation) -> Presentation:
    """Group completion of a plain presentation: free product with its
    mirror, plus relations a a' = 1 and a' a = 1 for every letter a."""
    fp = free_product(p, bar_copy(p))
    inverse = []
    for letter in p.alphabet:
        a, ab = Letter(letter.id, False), Letter(letter.id, True)
        inverse.append(Relation((a, ab), EMPTY))
        inverse.append(Relation((ab, a), EMPTY))
    return Presentation(fp.names, fp.alphabet, fp.relations + tuple(inverse),
                        GROUP_COMPLETION)


# -- text format ---------------------------------------------------------


def parse_presentation_text(text: str) -> Presentation:
    """Parse the presentation text format; raises ParseError with the line
    number on malformed input."""
    alpha = None        # the alphabet's Presentation, once its line is read
    relations = []
    kind = PLAIN
    kind_lineno = 1     # only the kind's own checks can fail after the loop

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if line.startswith("letters:"):
                if alpha is not None:
                    raise PresentationError("duplicate letters line")
                alpha = _alphabet(line[len("letters:"):].split())
            elif line.startswith("kind:"):
                kind = line[len("kind:"):].strip()
                kind_lineno = lineno
                if kind not in _KINDS:
                    raise PresentationError(f"unknown kind {kind!r}")
            elif line.startswith("rel:"):
                if alpha is None:
                    raise PresentationError("relation before letters line")
                sides = line[len("rel:"):].split("=")
                if len(sides) != 2:
                    raise PresentationError("relation needs exactly one '='")
                if not all(side.split() for side in sides):
                    raise PresentationError("empty relation side (use 1)")
                relations.append(Relation(*map(alpha.word, sides)))
            else:
                raise PresentationError(f"unrecognized line {line!r}")
        except PresentationError as exc:
            raise ParseError(lineno, str(exc)) from None

    if alpha is None:
        raise ParseError(1, "missing letters line")
    try:
        return Presentation(alpha.names, alpha.alphabet, tuple(relations),
                            kind)
    except PresentationError as exc:
        raise ParseError(kind_lineno, str(exc)) from None


def _alphabet(tokens) -> Presentation:
    """The relation-free presentation of a ``letters:`` line's tokens;
    Presentation validates the names and rejects duplicate letters."""
    if not tokens:
        raise PresentationError("empty letters line")
    names = []
    letters = []
    for token in tokens:
        base = token[:-1] if token.endswith("'") else token
        if base not in names:
            names.append(base)
        letters.append(Letter(names.index(base), base != token))
    return Presentation(tuple(names), tuple(sorted(letters)), ())


def parse_presentation_file(path) -> Presentation:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_presentation_text(fh.read())


def format_presentation(p: Presentation) -> str:
    """Render a presentation in the text format (parses back identically)."""
    lines = ["letters: " + " ".join(p.letter_str(l) for l in p.alphabet)]
    if p.kind != PLAIN:
        lines.append(f"kind: {p.kind}")
    for rel in p.relations:
        lines.append(f"rel: {p.word_str(rel.lhs)} = {p.word_str(rel.rhs)}")
    return "\n".join(lines) + "\n"


def presentation_to_json(p: Presentation) -> dict:
    return {
        "letters": [p.letter_str(l) for l in p.alphabet],
        "kind": p.kind,
        "relations": [[p.word_str(r.lhs), p.word_str(r.rhs)]
                      for r in p.relations],
    }
