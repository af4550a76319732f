"""Formula syntax: AST nodes, parser, renderer, substitution and matching.

Concrete grammar (lowest precedence first):

    iff   := imp ( "<->" imp )*
    imp   := or ( "->" imp )?            right associative
    or    := and ( "|" and )*            left associative
    and   := unary ( "&" unary )*        left associative
    unary := ( "~" | "F" | "G" | "P" | "H"
             | "dia" | "box" | "bdia" | "bbox" ) unary | atom
    atom  := "top" | "bot" | VAR | "(" formula ")"

``F``/``dia`` is the forward diamond, ``G``/``box`` the forward box,
``P``/``bdia`` the backward diamond, ``H``/``bbox`` the backward box.
Variables match ``[a-z][a-zA-Z0-9_]*`` and must not be reserved words.
Uppercase identifiers are metavariables and are only accepted by
``parse_schema``; they stand for arbitrary formulas in axiom schemas,
rule shapes and lemma citations.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Iterator, Mapping, Optional


class SyntaxIssue(ValueError):
    """Base class for lexing/parsing problems."""


class LexError(SyntaxIssue):
    def __init__(self, pos: int, char: str):
        super().__init__(f"unexpected character {char!r} at position {pos}")
        self.pos = pos
        self.char = char


class ParseError(SyntaxIssue):
    def __init__(self, pos: int, message: str):
        super().__init__(f"{message} at position {pos}")
        self.pos = pos


class ReservedWordError(SyntaxIssue):
    def __init__(self, name: str):
        super().__init__(f"{name!r} is reserved and cannot name a variable")
        self.name = name


# ---------------------------------------------------------------- AST nodes


@dataclass(frozen=True)
class Formula:
    def __str__(self) -> str:
        return render_formula(self)

    def __getstate__(self) -> dict:
        # string hashes are salted per process, so the cached hash stays behind
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}


@dataclass(frozen=True)
class Var(Formula):
    name: str


@dataclass(frozen=True)
class MetaVar(Formula):
    """Schema placeholder; appears only in axiom schemas and rule shapes."""

    name: str


@dataclass(frozen=True)
class Top(Formula):
    pass


@dataclass(frozen=True)
class Bot(Formula):
    pass


@dataclass(frozen=True)
class Not(Formula):
    child: Formula


@dataclass(frozen=True)
class Dia(Formula):
    child: Formula


@dataclass(frozen=True)
class Box(Formula):
    child: Formula


@dataclass(frozen=True)
class BDia(Formula):
    child: Formula


@dataclass(frozen=True)
class BBox(Formula):
    child: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Imp(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula


UNARY_KINDS = (Not, Dia, Box, BDia, BBox)
MODAL_KINDS = (Dia, Box, BDia, BBox)
BINARY_KINDS = (And, Or, Imp, Iff)


def _cached_hash(f: Formula) -> int:
    """The dataclass hash of f's fields, computed once per node.

    Formulas key the program cache, so a sweep hashes the same tree on
    every call; with each node keeping its hash, that is one lookup.
    """
    try:
        return f.__dict__["_hash"]
    except KeyError:
        h = hash(tuple(getattr(f, field.name) for field in fields(f)))
        object.__setattr__(f, "_hash", h)
        return h


for _kind in (Var, MetaVar, Top, Bot, *UNARY_KINDS, *BINARY_KINDS):
    _kind.__hash__ = _cached_hash

RESERVED_WORDS = frozenset({"top", "bot", "dia", "box", "bdia", "bbox"})
_VAR_RE = re.compile(r"[a-z][a-zA-Z0-9_]*\Z")

_UNARY_WORDS = {
    "F": Dia, "dia": Dia,
    "G": Box, "box": Box,
    "P": BDia, "bdia": BDia,
    "H": BBox, "bbox": BBox,
}


def is_valid_var_name(name: str) -> bool:
    return bool(_VAR_RE.match(name)) and name not in RESERVED_WORDS


def check_var_name(name: str) -> str:
    if name in RESERVED_WORDS:
        raise ReservedWordError(name)
    if not _VAR_RE.match(name):
        raise SyntaxIssue(f"invalid variable name {name!r}")
    return name


# ----------------------------------------------------------------- lexing

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
            continue
        if c == "(":
            tokens.append(("LPAREN", c, i))
            i += 1
        elif c == ")":
            tokens.append(("RPAREN", c, i))
            i += 1
        elif c == "&":
            tokens.append(("AND", c, i))
            i += 1
        elif c == "|":
            tokens.append(("OR", c, i))
            i += 1
        elif c == "~":
            tokens.append(("NOT", c, i))
            i += 1
        elif text.startswith("<->", i):
            tokens.append(("IFF", "<->", i))
            i += 3
        elif text.startswith("->", i):
            tokens.append(("IMP", "->", i))
            i += 2
        elif (m := _IDENT_RE.match(text, i)) is not None:
            tokens.append(("IDENT", m.group(), i))
            i = m.end()
        else:
            raise LexError(i, c)
    tokens.append(("EOF", "", n))
    return tokens


# ----------------------------------------------------------------- parsing


# Deepest nesting a formula may have: the connectives, modalities and open
# parentheses on one root-to-leaf path.  Every later pass over a formula
# recurses along its paths, so the parser refuses deeper input.
MAX_FORMULA_DEPTH = 100

# binary token -> (precedence, node); "->" is right associative, the rest left
_BINARY_TOKENS = {"IFF": (0, Iff), "IMP": (1, Imp), "OR": (2, Or), "AND": (3, And)}


class _Parser:
    """Precedence climbing in which every rule returns (formula, depth).

    open counts the nodes and parentheses around the current token.  It
    bounds the final depth from below, so checking it on every descent
    keeps the recursion within MAX_FORMULA_DEPTH levels.
    """

    def __init__(self, text: str, allow_meta: bool):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.allow_meta = allow_meta
        self.open = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(tok[2], f"expected {kind}, found {tok[1]!r}")
        return self.advance()

    @staticmethod
    def deeper(pos: int, depth: int) -> int:
        """depth + 1, for one more connective, modality or parenthesis at pos."""
        if depth >= MAX_FORMULA_DEPTH:
            raise ParseError(pos, f"formula nested deeper than {MAX_FORMULA_DEPTH}")
        return depth + 1

    def inside(self, pos: int, rule, *args) -> tuple[Formula, int]:
        """rule(*args), read inside one more node or parenthesis opened at pos."""
        self.open = self.deeper(pos, self.open)
        out = rule(*args)
        self.open -= 1
        return out

    def parse(self) -> Formula:
        f, _ = self.formula(0)
        tok = self.peek()
        if tok[0] != "EOF":
            raise ParseError(tok[2], f"unexpected trailing input {tok[1]!r}")
        return f

    def formula(self, min_prec: int) -> tuple[Formula, int]:
        f, d = self.unary()
        while self.peek()[0] in _BINARY_TOKENS:
            prec, node = _BINARY_TOKENS[self.peek()[0]]
            if prec < min_prec:
                break
            pos = self.advance()[2]
            g, e = self.inside(pos, self.formula, prec if node is Imp else prec + 1)
            f, d = node(f, g), self.deeper(pos, max(d, e))
        return f, d

    def unary(self) -> tuple[Formula, int]:
        kind, value, pos = self.peek()
        op = Not if kind == "NOT" else _UNARY_WORDS.get(value) if kind == "IDENT" else None
        if op is None:
            return self.atom()
        self.advance()
        f, d = self.inside(pos, self.unary)
        return op(f), self.deeper(pos, d)

    def atom(self) -> tuple[Formula, int]:
        kind, value, pos = self.advance()
        if kind == "LPAREN":
            f, d = self.inside(pos, self.formula, 0)
            self.expect("RPAREN")
            return f, self.deeper(pos, d)
        if kind == "IDENT":
            if value == "top":
                return Top(), 0
            if value == "bot":
                return Bot(), 0
            if value[0].islower():
                return Var(value), 0
            if self.allow_meta:
                return MetaVar(value), 0
            raise ParseError(
                pos, f"uppercase identifier {value!r} (metavariable) not allowed"
            )
        raise ParseError(pos, f"expected a formula, found {value or 'end of input'!r}")


def parse_formula(text: str) -> Formula:
    """Parse concrete syntax into a Formula; rejects metavariables."""
    return _Parser(text, allow_meta=False).parse()


def parse_schema(text: str) -> Formula:
    """Parse a schema: uppercase identifiers become MetaVar nodes."""
    return _Parser(text, allow_meta=True).parse()


# --------------------------------------------------------------- rendering

_PREC_IFF, _PREC_IMP, _PREC_OR, _PREC_AND, _PREC_UNARY, _PREC_ATOM = range(6)

_UNARY_TOKEN = {Dia: "F ", Box: "G ", BDia: "P ", BBox: "H ", Not: "~"}


def _prec(f: Formula) -> int:
    if isinstance(f, Iff):
        return _PREC_IFF
    if isinstance(f, Imp):
        return _PREC_IMP
    if isinstance(f, Or):
        return _PREC_OR
    if isinstance(f, And):
        return _PREC_AND
    if isinstance(f, UNARY_KINDS):
        return _PREC_UNARY
    return _PREC_ATOM


def render_formula(f: Formula) -> str:
    """Render with the fewest parentheses that re-parse to the same tree."""

    def wrap(child: Formula, minimum: int) -> str:
        text = render_formula(child)
        if _prec(child) < minimum:
            return f"({text})"
        return text

    if isinstance(f, (Var, MetaVar)):
        return f.name
    if isinstance(f, Top):
        return "top"
    if isinstance(f, Bot):
        return "bot"
    if isinstance(f, UNARY_KINDS):
        return _UNARY_TOKEN[type(f)] + wrap(f.child, _PREC_UNARY)
    if isinstance(f, And):
        # left-associative: a right child at the same level needs parens
        return f"{wrap(f.left, _PREC_AND)} & {wrap(f.right, _PREC_AND + 1)}"
    if isinstance(f, Or):
        return f"{wrap(f.left, _PREC_OR)} | {wrap(f.right, _PREC_OR + 1)}"
    if isinstance(f, Imp):
        # right-associative
        return f"{wrap(f.left, _PREC_IMP + 1)} -> {wrap(f.right, _PREC_IMP)}"
    if isinstance(f, Iff):
        return f"{wrap(f.left, _PREC_IFF)} <-> {wrap(f.right, _PREC_IFF + 1)}"
    raise TypeError(f"not a formula: {f!r}")


# ------------------------------------------------------------- traversals


def iter_subformulas(f: Formula) -> Iterator[Formula]:
    """Preorder walk over all subformula occurrences."""
    yield f
    if isinstance(f, UNARY_KINDS):
        yield from iter_subformulas(f.child)
    elif isinstance(f, BINARY_KINDS):
        yield from iter_subformulas(f.left)
        yield from iter_subformulas(f.right)


@dataclass(frozen=True)
class Program:
    """A formula compiled to postfix steps, one per distinct subformula.

    Step i is (kind, a, b) with kind the node class.  For Var and MetaVar
    a is the name; for a unary kind a is the step index of the child; for
    a binary kind a and b index the left and right steps.  Children come
    before their parents and the last step is the formula itself.

    hazards lists, in preorder, the nodes where an evaluator may have to
    stop: the first occurrence of each variable and metavariable, and the
    first modal node.  Checking them in order finds the first problem in
    preorder before any work is done.
    """

    variables: tuple[str, ...]
    steps: tuple[tuple[type, object, object], ...]
    hazards: tuple[Formula, ...]


PROGRAM_CACHE_SIZE = 1024


@lru_cache(maxsize=PROGRAM_CACHE_SIZE)
def compile_formula(f: Formula) -> Program:
    """The postfix program of f, cached by formula value."""
    steps: list[tuple[type, object, object]] = []
    index: dict[tuple[type, object, object], int] = {}
    hazards: list[Formula] = []

    def visit(g: Formula) -> int:
        kind = type(g)
        if kind is Var or kind is MetaVar:
            step = (kind, g.name, None)
            if step not in index:
                hazards.append(g)
        elif kind in UNARY_KINDS:
            if kind in MODAL_KINDS and not any(type(h) in MODAL_KINDS for h in hazards):
                hazards.append(g)
            step = (kind, visit(g.child), None)
        elif kind in BINARY_KINDS:
            step = (kind, visit(g.left), visit(g.right))
        elif kind is Top or kind is Bot:
            step = (kind, None, None)
        else:
            raise TypeError(f"not a formula: {g!r}")
        if step not in index:
            index[step] = len(steps)
            steps.append(step)
        return index[step]

    visit(f)
    names = sorted(name for kind, name, _ in steps if kind is Var)
    return Program(tuple(names), tuple(steps), tuple(hazards))


def variables_of(f: Formula) -> tuple[str, ...]:
    """Sorted names of the propositional variables in f, from its program."""
    return compile_formula(f).variables


def metavariables_of(f: Formula) -> tuple[str, ...]:
    return tuple(
        sorted({g.name for g in iter_subformulas(f) if isinstance(g, MetaVar)})
    )


def has_modal(f: Formula) -> bool:
    return any(isinstance(g, MODAL_KINDS) for g in iter_subformulas(f))


def substitute(f: Formula, mapping: Mapping[str, Formula]) -> Formula:
    """Replace metavariables by formulas; names not in mapping stay put."""
    if isinstance(f, MetaVar):
        return mapping.get(f.name, f)
    if isinstance(f, UNARY_KINDS):
        return type(f)(substitute(f.child, mapping))
    if isinstance(f, BINARY_KINDS):
        return type(f)(substitute(f.left, mapping), substitute(f.right, mapping))
    return f


_MIRROR_KINDS = {Not: Not, Dia: BDia, BDia: Dia, Box: BBox, BBox: Box}


def mirror(f: Formula) -> Formula:
    """The tense mirror image of f: F and P swapped, G and H swapped."""
    if isinstance(f, UNARY_KINDS):
        return _MIRROR_KINDS[type(f)](mirror(f.child))
    if isinstance(f, BINARY_KINDS):
        return type(f)(mirror(f.left), mirror(f.right))
    return f


def match(
    pattern: Formula,
    target: Formula,
    bindings: Optional[dict[str, Formula]] = None,
) -> Optional[dict[str, Formula]]:
    """One-sided matching: bind pattern metavariables to target subformulas.

    Returns the (possibly extended) bindings, or None when the shapes are
    incompatible.  Metavariables occurring in the target are treated as
    opaque atoms, which is what rule checking over schemas requires.
    """
    if bindings is None:
        bindings = {}
    if isinstance(pattern, MetaVar):
        seen = bindings.get(pattern.name)
        if seen is None:
            bindings[pattern.name] = target
            return bindings
        return bindings if seen == target else None
    if type(pattern) is not type(target):
        return None
    if isinstance(pattern, UNARY_KINDS):
        return match(pattern.child, target.child, bindings)
    if isinstance(pattern, BINARY_KINDS):
        b = match(pattern.left, target.left, bindings)
        if b is None:
            return None
        return match(pattern.right, target.right, b)
    return bindings if pattern == target else None
