"""Loop-word expressions over named generators.

Grammar (strict mode):

    word := term | term '*' term
    term := prim ('^' int)*
    prim := 'z' | 'g' digits | '(' word ')'
          | '[' word ',' word ']' | '[' word ',' word ',' word ']'

'*' is deliberately not associative: "g1*g2*g3" is rejected with an
"association required" error, because silent left-association would hide
exactly the distinctions this algebra is about.  assoc="left" folds
products left-to-right instead (lossy, CLI escape hatch).

A word nests at most MAX_NESTING levels, counting both open brackets and
levels of the parsed tree, so neither parsing nor evaluation recurses
deeper; a deeper word is a WordSyntaxError at the position where it
crosses the limit.

Evaluating a word in a built loop lands on an element (z, v), which is
already the normal form z g1^{r1}(g2^{r2}(...)).  On a central extension
eval_word takes two passes.  The first walks the word on a
loops._RecordingLoop, which computes every vector part and records each
product's pair of vector parts with a recipe for its central value; the
second evaluates theta on all recorded pairs in one kernel call and the
recipes in order.  Any other context, such as the CLI's Cayley-table
adapter, is walked once, product by product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .loops import CentralExtensionLoop, CodedLoopElement, _RecordingLoop

MAX_NESTING = 100  # levels; parsing takes about 3 stack frames per level


@dataclass(frozen=True)
class Gen:
    index: int  # 1-based


@dataclass(frozen=True)
class CentralZ:
    pass


@dataclass(frozen=True)
class Prod:
    left: "WordTree"
    right: "WordTree"


@dataclass(frozen=True)
class Pow:
    base: "WordTree"
    exponent: int


@dataclass(frozen=True)
class Comm:
    left: "WordTree"
    right: "WordTree"


@dataclass(frozen=True)
class Assoc:
    first: "WordTree"
    second: "WordTree"
    third: "WordTree"


WordTree = Union[Gen, CentralZ, Prod, Pow, Comm, Assoc]


class WordSyntaxError(ValueError):
    def __init__(self, message: str, pos: int, text: str):
        super().__init__("%s (at position %d)" % (message, pos))
        self.pos = pos
        self.text = text

    def caret_diagnostic(self) -> str:
        return "%s\n%s^" % (self.text, " " * self.pos)


_PUNCT = set("*^()[],")


def _tokenize(text: str):
    """Yields (kind, value, pos); kinds: g, z, int, punct, end."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _PUNCT:
            out.append((ch, ch, i))
            i += 1
            continue
        if ch == "g":
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise WordSyntaxError("generator needs an index", i, text)
            out.append(("g", int(text[i + 1:j]), i))
            i = j
            continue
        if ch == "z":
            out.append(("z", "z", i))
            i += 1
            continue
        if ch == "-" or ch.isdigit():
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if text[i:j] in ("-",):
                raise WordSyntaxError("bare '-' is not a token", i, text)
            out.append(("int", int(text[i:j]), i))
            i = j
            continue
        raise WordSyntaxError("unexpected character %r" % ch, i, text)
    out.append(("end", None, n))
    return out


class _Parser:
    """Recursive descent; word, term and prim return (tree, tree depth)."""

    def __init__(self, text: str, assoc: str):
        if assoc not in ("strict", "left"):
            raise ValueError("assoc must be 'strict' or 'left'")
        self.text = text
        self.assoc = assoc
        self.toks = _tokenize(text)
        self.i = 0
        self.open = 0  # brackets open around the current token

    def peek(self):
        return self.toks[self.i]

    def take(self, kind=None):
        tok = self.toks[self.i]
        if kind is not None and tok[0] != kind:
            raise WordSyntaxError("expected %r, found %r" % (kind, tok[0]),
                                  tok[2], self.text)
        self.i += 1
        return tok

    def nested(self, depth: int, pos: int):
        if depth > MAX_NESTING:
            raise WordSyntaxError("word nested deeper than %d levels"
                                  % MAX_NESTING, pos, self.text)

    def node(self, tree: WordTree, depth: int, pos: int):
        """tree, of the given depth, built at the token at pos."""
        self.nested(depth, pos)
        return tree, depth

    def parse(self) -> WordTree:
        tree, _ = self.word()
        tok = self.peek()
        if tok[0] != "end":
            raise WordSyntaxError("trailing input", tok[2], self.text)
        return tree

    def word(self):
        left, dl = self.term()
        if self.peek()[0] != "*":
            return left, dl
        pos = self.take("*")[2]
        right, dr = self.term()
        tree, depth = self.node(Prod(left, right), 1 + max(dl, dr), pos)
        if self.peek()[0] == "*":
            if self.assoc == "strict":
                raise WordSyntaxError(
                    "association required: parenthesize nested products",
                    self.peek()[2], self.text)
            while self.peek()[0] == "*":
                pos = self.take("*")[2]
                right, dr = self.term()
                tree, depth = self.node(Prod(tree, right),
                                        1 + max(depth, dr), pos)
        return tree, depth

    def term(self):
        tree, depth = self.prim()
        while self.peek()[0] == "^":
            pos = self.take("^")[2]
            tok = self.take("int")
            tree, depth = self.node(Pow(tree, tok[1]), depth + 1, pos)
        return tree, depth

    def prim(self):
        kind, val, pos = self.peek()
        if kind == "g":
            self.take()
            return Gen(val), 1
        if kind == "z":
            self.take()
            return CentralZ(), 1
        if kind not in ("(", "["):
            raise WordSyntaxError("expected a generator, 'z', '(' or '['",
                                  pos, self.text)
        self.take()
        self.open += 1
        self.nested(self.open, pos)
        if kind == "(":
            inner = self.word()
            self.take(")")
            self.open -= 1
            return inner
        parts = [self.word()]
        while self.peek()[0] == ",":
            self.take(",")
            parts.append(self.word())
        self.take("]")
        self.open -= 1
        depth = 1 + max(d for _, d in parts)
        trees = [t for t, _ in parts]
        if len(parts) == 2:
            return self.node(Comm(*trees), depth, pos)
        if len(parts) == 3:
            return self.node(Assoc(*trees), depth, pos)
        raise WordSyntaxError("brackets take 2 or 3 arguments, got %d"
                              % len(parts), pos, self.text)


def parse_word(text: str, assoc: str = "strict") -> WordTree:
    return _Parser(text, assoc).parse()


def eval_word(tree: WordTree, L: CentralExtensionLoop) -> CodedLoopElement:
    """The element a word denotes in L: in two passes on a central
    extension (see the module docstring), else product by product."""
    if isinstance(L, CentralExtensionLoop):
        rec = _RecordingLoop(L)
        return rec.resolve(_eval(tree, rec))
    return _eval(tree, L)


def _eval(tree: WordTree, L) -> CodedLoopElement:
    """The word on any context with generator, central_generator, mul,
    pow, commutator and associator: one call per node."""
    if isinstance(tree, Gen):
        if not 1 <= tree.index <= L.k:
            raise ValueError("unbound generator g%d (loop has dimension %d)"
                             % (tree.index, L.k))
        return L.generator(tree.index - 1)
    if isinstance(tree, CentralZ):
        return L.central_generator()
    if isinstance(tree, Prod):
        return L.mul(_eval(tree.left, L), _eval(tree.right, L))
    if isinstance(tree, Pow):
        return L.pow(_eval(tree.base, L), tree.exponent)
    if isinstance(tree, Comm):
        return L.commutator(_eval(tree.left, L), _eval(tree.right, L))
    if isinstance(tree, Assoc):
        return L.associator(_eval(tree.first, L), _eval(tree.second, L),
                            _eval(tree.third, L))
    raise TypeError("not a word tree: %r" % (tree,))


def render_element(L: CentralExtensionLoop, a: CodedLoopElement) -> str:
    """The normal form string z^a g1^{r1}(g2^{r2}(...)), zero slots omitted."""
    parts = []
    if a.z:
        parts.append("z" if a.z == 1 else "z^%d" % a.z)
    slots = [(i + 1, r) for i, r in enumerate(a.v) if r]
    if slots:
        body = ""
        for i, r in reversed(slots):
            g = "g%d" % i if r == 1 else "g%d^%d" % (i, r)
            body = g if not body else "%s(%s)" % (g, body)
        parts.append(body)
    return " ".join(parts) if parts else "1"


def normal_form_string(tree: WordTree, L: CentralExtensionLoop) -> str:
    return render_element(L, eval_word(tree, L))


def render_word(tree: WordTree) -> str:
    """Parseable text for a tree (products fully parenthesized)."""
    if isinstance(tree, Gen):
        return "g%d" % tree.index
    if isinstance(tree, CentralZ):
        return "z"
    if isinstance(tree, Prod):
        return "(%s*%s)" % (render_word(tree.left), render_word(tree.right))
    if isinstance(tree, Pow):
        base = render_word(tree.base)
        if isinstance(tree.base, (Prod, Pow)):
            base = "(%s)" % base
        return "%s^%d" % (base, tree.exponent)
    if isinstance(tree, Comm):
        return "[%s,%s]" % (render_word(tree.left), render_word(tree.right))
    if isinstance(tree, Assoc):
        return "[%s,%s,%s]" % (render_word(tree.first),
                               render_word(tree.second),
                               render_word(tree.third))
    raise TypeError("not a word tree: %r" % (tree,))
