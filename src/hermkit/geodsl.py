"""A small plain-text config language for charts, metrics, structures and maps.

Statement forms (one per line, lines broken at ``\\n``, ``\\r\\n`` and ``\\r`` only;
``#`` starts a comment)::

    dim = 2
    domain x1 = [0.2, 1.7]
    g = [[1, 0], [0, sin(x1)^2]]      # or elementwise: g[2][2] = sin(x1)^2
    J = [[0, -1], [1, 0]]             # optional
    map square -> 2 = [x1^2 - x2^2, 2*x1*x2]

Expressions use coordinates x1..xd, numeric literals, ``+ - * / ^``, unary
minus and the functions sin cos tan exp log sqrt atan2.  ``^`` is
right-associative and binds tighter than unary minus, so ``-x1^2`` is
``-(x1^2)``.  The grammar has no conditionals or user functions, keeping every
parsed field smooth.

Parsing.  One ``findall`` of the token pattern splits a line into its number,
name and symbol strings, which recursive descent reads as they are (``+ - * /``
by precedence climbing).  A token's column is computed only to raise an error,
by scanning that line again.  :func:`parse` then checks g, J and every map on
the stack of five probe points, each check once.

Evaluation contract.  :func:`evaluate` is the reference: it walks the tree at
one point in Python floats and ``math``.  Each config entry (g, J, a map) is
compiled once (:func:`compile_exprs`) into one straight-line program over a
(k, dim) stack of points, with one step per structural key, so the metric, J
and map functions take whole stencils and a subtree repeated in an entry (the
``x1^2`` of both components of a map) is evaluated once per stack.  The
program gives :func:`evaluate`'s values bit for bit on every platform:

* arithmetic and negation are NumPy array operations, which round like
  Python's float operators (IEEE 754);
* ``^`` and the functions go through ``math`` element by element, because
  NumPy's exp, log, tan, arctan2 and power differ from libm in the last bit
  on some inputs;
* the stack is evaluated under ``np.errstate`` raising on division by zero,
  invalid operations and overflow.  On any such flag, any exception or any
  non-finite value, the stack is evaluated again row by row with
  :func:`evaluate`, which returns its values or raises its
  ``EvaluationError``, naming the expression, the point and the entry's
  config line.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .errors import (ConfigError, DimensionMismatch, DslSyntaxError,
                     EvaluationError, UnknownSymbol)
from .hermitian import J_SQUARE_TOL, AlmostComplexField, invariant_residuals
from .manifold import Box, Chart, positive_definite
from .numdiff import constant

FUNCTIONS = {
    "sin": (1, math.sin),
    "cos": (1, math.cos),
    "tan": (1, math.tan),
    "exp": (1, math.exp),
    "log": (1, math.log),
    "sqrt": (1, math.sqrt),
    "atan2": (2, math.atan2),
}


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------
# The parser builds the nodes and nothing mutates them.  Slotted dataclasses keep
# ==, hash and repr, and build in half the time of frozen ones (no object.__setattr__).

@dataclass(slots=True, unsafe_hash=True)
class Num:
    value: float


@dataclass(slots=True, unsafe_hash=True)
class Coord:
    index: int  # 1-based, as written


@dataclass(slots=True, unsafe_hash=True)
class Neg:
    arg: "Expr"


@dataclass(slots=True, unsafe_hash=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(slots=True, unsafe_hash=True)
class Call:
    name: str
    args: tuple


Expr = Num | Coord | Neg | BinOp | Call


def evaluate(expr: Expr, point) -> float:
    """Evaluate recursively at one point; NaN/Inf and math-domain violations
    raise EvaluationError naming the expression and the point.  The reference
    that :func:`compile_exprs` equals."""
    point = np.asarray(point, dtype=float)
    try:
        value = _eval(expr, point)
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        raise EvaluationError(f"{exc} in {pretty(expr)} at {point.tolist()}") from exc
    if not math.isfinite(value):
        raise EvaluationError(f"{pretty(expr)} produced {value} at {point.tolist()}")
    return value


def _eval(expr: Expr, point: np.ndarray) -> float:
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Coord):
        if expr.index > len(point):
            raise EvaluationError(
                f"coordinate x{expr.index} beyond point of dimension {len(point)}")
        return float(point[expr.index - 1])
    if isinstance(expr, Neg):
        return -_eval(expr.arg, point)
    if isinstance(expr, BinOp):
        a = _eval(expr.left, point)
        b = _eval(expr.right, point)
        if expr.op == "+":
            return a + b
        if expr.op == "-":
            return a - b
        if expr.op == "*":
            return a * b
        if expr.op == "/":
            return a / b
        return math.pow(a, b)
    arity, fn = FUNCTIONS[expr.name]
    return fn(*(_eval(a, point) for a in expr.args))


def compile_exprs(exprs, lines=None) -> Callable[[np.ndarray], np.ndarray]:
    """The stack function of a list of expressions: a (k, n) stack of points
    to the (k, len(exprs)) array of their values, equal bit for bit to
    :func:`evaluate` at each row and expression.

    One straight-line program computes them, one step per structural key
    (:func:`_compile`): a subtree repeated within or across the expressions is
    evaluated once per stack.  ``lines``, when given, holds the config line of
    each expression; an ``EvaluationError`` then starts with ``line <n>:``
    (``None``: none).
    """
    slots: dict = {}
    program: list = []
    columns = [_compile(e, slots, program) for e in exprs]
    distinct = list(dict.fromkeys(columns))
    gather = [distinct.index(o) for o in columns]
    outputs = [float(o) if isinstance(o, str) else o for o in distinct]  # a slot or a float

    def fn(points):
        points = np.asarray(points, dtype=float)
        values = [points]
        out = np.empty((len(points), len(outputs)))
        try:
            with np.errstate(divide="raise", invalid="raise", over="raise"):
                for step in program:
                    values.append(step(values))
                for c, o in enumerate(outputs):
                    out[:, c] = values[o] if isinstance(o, int) else o
            if np.isfinite(out).all():
                return out[:, gather]
        except (ArithmeticError, ValueError):
            pass
        return _row_by_row(exprs, lines, points)

    return fn


def _row_by_row(exprs, lines, points: np.ndarray) -> np.ndarray:
    """:func:`evaluate` at each row and expression: the values, or the first
    error in row order."""
    out = np.empty((len(points), len(exprs)))
    for r, p in enumerate(points):
        for c, e in enumerate(exprs):
            try:
                out[r, c] = evaluate(e, p)
            except EvaluationError as exc:
                if lines is None or lines[c] is None:
                    raise
                raise EvaluationError(f"line {lines[c]}: {exc}") from exc
    return out


def _divide(a, b):
    """``a / b`` over a stack, raising on a zero divisor as Python's ``/`` does
    (NumPy would give inf/0 = inf without a flag)."""
    if isinstance(b, np.ndarray) and not b.all():
        raise ZeroDivisionError("float division by zero")
    return np.divide(a, b)


def _elementwise(fn: Callable) -> Callable:
    """``fn`` applied row by row to its arguments, stacks or floats (one a stack)."""
    def kernel(*values):
        columns = [v.tolist() if isinstance(v, np.ndarray) else itertools.repeat(v)
                   for v in values]
        rows = len(next(v for v in values if isinstance(v, np.ndarray)))
        return np.fromiter(map(fn, *columns), float, count=rows)
    return kernel


#: Stack kernels of the operators.  NumPy's negation and +, -, *, / round like
#: Python's float operators; ``^`` goes through ``math.pow`` element by element.
_KERNELS = {"neg": np.negative, "+": np.add, "-": np.subtract, "*": np.multiply,
            "/": _divide, "^": _elementwise(math.pow),
            **{name: _elementwise(fn) for name, (_, fn) in FUNCTIONS.items()}}
_NO_POINT = np.zeros(0)


def _compile(expr: Expr, slots: dict, program: list):
    """``expr``'s operand: the ``repr`` of the float :func:`evaluate` gives when
    ``expr`` reads no coordinate, else its slot, 1 + the index of its step in
    ``program`` (slot 0 holds the points).  ``slots`` maps each key to its slot:
    a coordinate's index, or the operator or function name and the operands, so
    subtrees share a step when they are equal with numbers, and subtrees that
    read no coordinate, compared by the ``repr`` of their value (trees compare
    Num(0.0) equal to Num(-0.0))."""
    if isinstance(expr, BinOp):
        key = (expr.op, _compile(expr.left, slots, program), _compile(expr.right, slots, program))
    elif isinstance(expr, Num):
        return repr(expr.value)
    elif isinstance(expr, Coord):
        key = expr.index
    else:
        name, args = ("neg", (expr.arg,)) if isinstance(expr, Neg) else (expr.name, expr.args)
        a, *b = (_compile(arg, slots, program) for arg in args)
        key = (name, a, *b) if b else (name, a, None)  # None: unary
    slot = slots.get(key)
    if slot is not None:
        return slot
    # steps bind operands as defaults: captured, each would be a cell made on every call
    if isinstance(key, int):
        step = lambda values, i=key - 1: values[0][:, i]
    else:
        name, a, b = key
        f = _KERNELS[name]
        if name == "/" and isinstance(b, str) and float(b) == 0.0:
            step = _unevaluable  # Python's / raises at every row
        elif isinstance(a, str) and (b is None or isinstance(b, str)):
            try:
                return repr(_eval(expr, _NO_POINT))
            except (ValueError, OverflowError, ZeroDivisionError):
                step = _unevaluable
        elif b is None:
            step = lambda values, f=f, a=a: f(values[a])
        elif isinstance(a, str):
            step = lambda values, f=f, a=float(a), b=b: f(a, values[b])
        elif isinstance(b, str):
            step = lambda values, f=f, a=a, b=float(b): f(values[a], b)
        else:
            step = lambda values, f=f, a=a, b=b: f(values[a], values[b])
    program.append(step)
    slots[key] = len(program)
    return len(program)


def _unevaluable(values):
    """A subexpression that raises wherever it is evaluated; the row-by-row
    fallback reports it with :func:`evaluate`'s message."""
    raise ArithmeticError("subexpression does not evaluate")


_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def pretty(expr: Expr) -> str:
    """Canonical source form; parses back to an equal tree."""
    return _pretty(expr, 0)


def _pretty(expr: Expr, parent: int) -> str:
    if isinstance(expr, Num):
        return repr(expr.value)
    if isinstance(expr, Coord):
        return f"x{expr.index}"
    if isinstance(expr, Call):
        return f"{expr.name}({', '.join(_pretty(a, 0) for a in expr.args)})"
    if isinstance(expr, Neg):
        inner = _pretty(expr.arg, _PRECEDENCE["neg"])
        out = f"-{inner}"
        return f"({out})" if parent > _PRECEDENCE["neg"] else out
    prec = _PRECEDENCE[expr.op]
    # left-associative chains reparse correctly without parens on the left;
    # the right operand needs them at equal precedence (except ^, which is
    # right-associative and needs them on the left instead)
    if expr.op == "^":
        left = _pretty(expr.left, prec + 1)
        right = _pretty(expr.right, prec)
    else:
        left = _pretty(expr.left, prec)
        right = _pretty(expr.right, prec + 1)
    out = f"{left} {expr.op} {right}"
    return f"({out})" if parent > prec else out


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

class _Token(NamedTuple):
    kind: str  # NUMBER IDENT SYMBOL END
    text: str
    line: int
    col: int


#: A line break: only the universal newlines, so that a form feed, a vertical tab
#: or U+2028 in a comment stays in its line (``str.splitlines`` breaks at those too).
_NEWLINE = re.compile(r"\r\n|\r|\n")
#: One token after optional whitespace: an ASCII number or name, a symbol, or
#: (BAD) a character that starts none of them.
_TOKEN = re.compile(r"\s*(?:(?P<NUMBER>(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
                    r"|(?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)|(?P<SYMBOL>->|[-+*/^()\[\],=])"
                    r"|(?P<BAD>\S))")


def _tokenize_line(text: str, line_no: int) -> list[_Token]:
    """The tokens of a line up to its comment (``#``), then END at its end: the column oracle."""
    tokens = [_Token(kind := m.lastgroup, m[kind], line_no, m.start(kind) + 1)
              for m in _TOKEN.finditer(text.partition("#")[0])]
    for tok in tokens:
        if tok.kind == "BAD":
            raise DslSyntaxError(line_no, tok.col, f"a token (got {tok.text!r})")
    tokens.append(_Token("END", "", line_no, len(text) + 1))
    return tokens


#: Precedence of the left-associative binary operators.
_BINARY = {"+": 1, "-": 1, "*": 2, "/": 2}


class _Parser:
    """Recursive descent over one statement line; ``+ - * /`` by precedence climbing.
    It reads the NUMBER, IDENT and SYMBOL fields of ``_TOKEN.findall``, one tuple
    each with END ("" in each) last; a token is of the field it is not empty in.
    Columns come from :func:`_tokenize_line`, on the error path only."""

    def __init__(self, text: str, line: int, dim: int | None):
        self.number, self.ident, self.symbol, bad = zip(
            *_TOKEN.findall(text.partition("#")[0]), ("", "", "", ""))
        if any(bad):
            _tokenize_line(text, line)  # raises at the first BAD token
        self.text, self.line, self.dim, self.pos = text, line, dim, 0

    def error(self, expected: str, at: int | None = None):
        """Raise ``DslSyntaxError`` at token ``at`` (default: the next one)."""
        col = _tokenize_line(self.text, self.line)[self.pos if at is None else at].col
        raise DslSyntaxError(self.line, col, expected)

    def accept(self, symbol: str) -> bool:
        found = self.symbol[self.pos] == symbol
        self.pos += found
        return found

    def expect(self, *symbols: str) -> None:
        for symbol in symbols:
            if not self.accept(symbol):
                self.error(symbol)

    def take(self, field: tuple, expected: str) -> str:
        """The next token's text in ``field`` (``self.number`` or ``self.ident``)."""
        text = field[self.pos]
        if not text:
            self.error(expected)
        self.pos += 1
        return text

    def count(self, what: str) -> int:
        """The next token as a positive integer, else an error expecting ``what`` there."""
        value = float(self.take(self.number, "number"))
        if not (value.is_integer() and value >= 1):
            self.error(what, self.pos - 1)
        return int(value)

    def at_end(self) -> bool:
        return self.pos == len(self.symbol) - 1

    def expr(self, least: int = 1, node: Expr | None = None) -> Expr:
        """Operands joined by binary operators of precedence ``least`` or more,
        from ``node`` when the first operand is parsed already."""
        if node is None:
            node = self.operand()
        while (prec := _BINARY.get(op := self.symbol[self.pos], 0)) >= least:
            self.pos += 1
            right = self.operand()
            if _BINARY.get(self.symbol[self.pos], 0) > prec:
                right = self.expr(prec + 1, right)
            node = BinOp(op, node, right)
        return node

    def operand(self) -> Expr:
        """Unary minus, or an atom raised (right-associatively) to an operand."""
        at = self.pos
        self.pos += 1
        if number := self.number[at]:
            base = Num(float(number))
        elif (symbol := self.symbol[at]) == "-":
            return Neg(self.operand())
        elif symbol == "(":
            base = self.expr()
            self.expect(")")
        else:
            base = self.named(at)
        if self.symbol[self.pos] == "^":
            self.pos += 1
            return BinOp("^", base, self.operand())
        return base

    def named(self, at: int) -> Expr:
        """The function call or coordinate that token ``at`` names."""
        name = self.ident[at]
        if not name:
            self.error("a number, coordinate, function or '('", at)
        if name in FUNCTIONS:
            args = self.sequence(self.expr, "(", ")")
            arity = FUNCTIONS[name][0]
            if len(args) != arity:
                self.error(f"{arity} argument(s) to {name}", at)
            return Call(name, tuple(args))
        if name.startswith("x") and name[1:].isdigit():
            index = int(name[1:])
            if index < 1:
                raise UnknownSymbol(f"line {self.line}: {name!r} is not a coordinate")
            if self.dim is not None and index > self.dim:
                raise DimensionMismatch(
                    f"line {self.line}: coordinate {name} exceeds dimension {self.dim}")
            return Coord(index)
        col = _tokenize_line(self.text, self.line)[at].col
        raise UnknownSymbol(f"line {self.line}, col {col}: unknown symbol {name!r}")

    def sequence(self, item: Callable, opening: str = "[", closing: str = "]") -> list:
        """One or more ``item()`` separated by commas, in brackets."""
        self.expect(opening)
        items = [item()]
        while self.accept(","):
            items.append(item())
        self.expect(closing)
        return items


def parse_expr(text: str, dim: int | None = None, line_no: int = 1) -> Expr:
    """Parse one standalone expression."""
    parser = _Parser(text, line_no, dim)
    try:
        node = parser.expr()
    except RecursionError:
        parser.error("a less deeply nested expression")
    if not parser.at_end():
        parser.error("end of expression")
    return node


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

#: Asymmetry beyond this triggers a symmetrization warning.
SYMMETRY_WARN = 1e-12


@dataclass
class GeoConfig:
    """Parsed chart description: dimension, box, metric/structure/map trees."""

    dim: int
    domain: list
    metric: list          # dim x dim nested list of Expr
    structure: list | None
    maps: dict            # name -> (target_dim, [Expr])
    warnings: list = field(default_factory=list)
    #: Set by ``parse``: why J is not g-compatible at a probe point, or None.
    incompatibility: str | None = None
    #: Config line of each entry, set by ``parse``: keys ``("g", i, j)``,
    #: ``("J", i, j)`` (0-based) and ``("map", name)``; an entry that no
    #: statement assigned has none.
    lines: dict = field(default_factory=dict, compare=False)

    @cached_property
    def _stack_fns(self) -> dict:
        """Every entry compiled once per config: ``"g"`` and ``"J"`` map a
        (k, dim) stack to the (k, dim, dim) raw matrices, ``("map", name)``
        to the (k, target dim) values."""
        d = self.dim

        def matrix(label: str, rows: list) -> Callable:
            fn = compile_exprs([e for row in rows for e in row],
                               [self.lines.get((label, i, j)) for i in range(d) for j in range(d)])
            return lambda stack: fn(stack).reshape(len(stack), d, d)

        fns = {("map", name): compile_exprs(exprs, [self.lines.get(("map", name))] * len(exprs))
               for name, (_, exprs) in self.maps.items()}
        fns["g"] = matrix("g", self.metric)
        if self.structure is not None:
            fns["J"] = matrix("J", self.structure)
        return fns

    def metric_fn(self) -> Callable:
        """(k, dim) stack -> (k, dim, dim) stack of the symmetrized metric."""
        raw = self._stack_fns["g"]

        def fn(stack):
            g = raw(stack)
            return 0.5 * (g + np.swapaxes(g, 1, 2))
        return fn

    def structure_fn(self) -> Callable | None:
        """(k, dim) stack -> (k, dim, dim) stack of J, or None without J."""
        return self._stack_fns.get("J")

    def map_fn(self, name: str) -> tuple[int, Callable]:
        """The target dimension and the (k, dim) -> (k, target dim) stack function."""
        return self.maps[name][0], self._stack_fns[("map", name)]

    def probe_points(self, count: int = 5) -> np.ndarray:
        """The (count, dim) probe stack: the box centre, then seeded draws away
        from the box faces."""
        lo, hi = np.array(self.domain).T
        draws = np.random.default_rng(0).uniform(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo),
                                                 (count - 1, self.dim))
        return np.vstack([0.5 * (lo + hi), draws])

    def to_source(self) -> str:
        lines = [f"dim = {self.dim}"]
        for i, (a, b) in enumerate(self.domain):
            lines.append(f"domain x{i + 1} = [{a!r}, {b!r}]")
        for label, matrix in (("g", self.metric), ("J", self.structure)):
            if matrix is not None:
                rows = ", ".join("[" + ", ".join(map(pretty, row)) + "]" for row in matrix)
                lines.append(f"{label} = [{rows}]")
        for name, (target_dim, exprs) in self.maps.items():
            body = ", ".join(pretty(e) for e in exprs)
            lines.append(f"map {name} -> {target_dim} = [{body}]")
        return "\n".join(lines) + "\n"


def _constant(expr: Expr, line_no: int) -> float:
    try:
        return evaluate(expr, np.zeros(0))
    except EvaluationError as exc:
        raise DslSyntaxError(line_no, 1, f"a constant expression ({exc})") from exc


def parse(source: str) -> GeoConfig:
    """Parse and numerically validate a config; all failures are structured
    DslError subclasses."""
    try:
        return _parse(source)
    except RecursionError:
        raise DslSyntaxError(0, 0, "a less deeply nested input")


def _parse(source: str) -> GeoConfig:
    if isinstance(source, bytes):
        try:
            source = source.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DslSyntaxError(0, 0, f"UTF-8 text ({exc})") from exc
    dim: int | None = None
    domain: dict[int, tuple] = {}
    # per label "g" / "J": the whole matrix and its line, or (i, j) -> (Expr, line)
    matrices: dict[str, tuple] = {}
    elements: dict[str, dict] = {"g": {}, "J": {}}
    maps: dict[str, tuple] = {}
    lines: dict = {}
    # (line, expressions, dim while parsing) of every g, J and map statement
    statements: list[tuple] = []

    for line_no, raw in enumerate(_NEWLINE.split(source), start=1):
        p = _Parser(raw, line_no, dim)
        if p.at_end():
            continue
        head = p.take(p.ident, "ident")
        if head == "dim":
            p.expect("=")
            dim = p.count("a positive integer dimension")
        elif head == "domain":
            axis = p.take(p.ident, "ident")
            if not (axis.startswith("x") and axis[1:].isdigit()):
                p.error("a coordinate name like x1", p.pos - 1)
            idx = int(axis[1:])
            if idx < 1:
                raise UnknownSymbol(f"line {line_no}: {axis!r} is not a coordinate")
            p.expect("=", "[")
            lo = _constant(p.expr(), line_no)
            p.expect(",")
            hi = _constant(p.expr(), line_no)
            p.expect("]")
            if lo >= hi:
                raise ConfigError(f"line {line_no}: empty domain interval for x{idx}")
            domain[idx] = (lo, hi)
        elif head in ("g", "J"):
            if p.accept("["):
                i = p.count("1-based indices")
                p.expect("]", "[")
                j = p.count("1-based indices")
                p.expect("]", "=")
                expr = p.expr()
                elements[head][(i, j)] = (expr, line_no)
                statements.append((line_no, [expr], dim))
            else:
                p.expect("=")
                rows = p.sequence(lambda: p.sequence(p.expr))
                matrices[head] = (rows, line_no)
                statements.append((line_no, [e for row in rows for e in row], dim))
        elif head == "map":
            name = p.take(p.ident, "ident")
            p.expect("->")
            target_dim = p.count("a positive target dimension")
            p.expect("=")
            exprs = p.sequence(p.expr)
            if len(exprs) != target_dim:
                raise DimensionMismatch(
                    f"line {line_no}: map {name!r} declares target dimension "
                    f"{target_dim} but has {len(exprs)} components")
            maps[name] = (target_dim, exprs)
            lines[("map", name)] = line_no
            statements.append((line_no, exprs, dim))
        else:
            p.error("'dim', 'domain', 'g', 'J' or 'map'", 0)
        if not p.at_end():
            p.error("end of line")

    if dim is None:
        raise ConfigError("no 'dim = <n>' statement")
    for line_no, exprs, parsed_dim in statements:
        if parsed_dim == dim:  # the parser has checked these coordinates
            continue
        for index in (i for e in exprs for i in _coordinates(e)):
            if index > dim:
                raise DimensionMismatch(
                    f"line {line_no}: coordinate x{index} exceeds dimension {dim}")
    warnings: list[str] = []
    metric = _assemble_matrix(matrices.get("g"), elements["g"], dim, "g", lines)
    if metric is None:
        raise ConfigError("no metric given (use 'g = [[...]]' or 'g[i][j] = ...')")
    structure = _assemble_matrix(matrices.get("J"), elements["J"], dim, "J", lines)
    for idx in domain:
        if idx > dim:
            raise DimensionMismatch(f"domain declared for x{idx} but dim = {dim}")
    box = [domain.get(i + 1, (-1.0, 1.0)) for i in range(dim)]
    config = GeoConfig(dim, box, metric, structure, maps, warnings, lines=lines)
    _validate(config)
    return config


def _coordinates(expr: Expr):
    """The coordinate indices ``expr`` reads, in source order."""
    if isinstance(expr, Coord):
        yield expr.index
    elif isinstance(expr, Neg):
        yield from _coordinates(expr.arg)
    elif isinstance(expr, BinOp):
        yield from _coordinates(expr.left)
        yield from _coordinates(expr.right)
    elif isinstance(expr, Call):
        for arg in expr.args:
            yield from _coordinates(arg)


def _assemble_matrix(matrix, elems, dim: int, label: str, lines: dict):
    """The dim x dim matrix from a whole-matrix statement ``(rows, line)`` or
    from ``(i, j) -> (Expr, line)``; records each entry's line in ``lines``."""
    if matrix is not None and elems:
        raise ConfigError(f"{label}: mix of whole-matrix and elementwise assignments")
    if matrix is not None:
        rows, line = matrix
        if len(rows) != dim or any(len(r) != dim for r in rows):
            raise DimensionMismatch(f"{label} must be a {dim} x {dim} matrix")
        lines.update({(label, i, j): line for i in range(dim) for j in range(dim)})
        return rows
    if elems:
        out = [[Num(0.0) for _ in range(dim)] for _ in range(dim)]
        for (i, j), (expr, line) in elems.items():
            if i > dim or j > dim:
                raise DimensionMismatch(f"{label}[{i}][{j}] exceeds dimension {dim}")
            out[i - 1][j - 1] = expr
            lines[(label, i - 1, j - 1)] = line
        return out
    return None


def _validate(config: GeoConfig) -> None:
    """Probe g, J and every map at once on the stack of probe points; a warning
    names each probe where it is seen, an error the first (``rows[:1]``)."""
    probes = config.probe_points()
    raws = config._stack_fns["g"](probes)
    metrics = 0.5 * (raws + np.swapaxes(raws, 1, 2))
    asymmetry = np.max(np.abs(raws - np.swapaxes(raws, 1, 2)), axis=(1, 2))
    config.warnings += [f"metric asymmetry {a:.3g} at probe {p.tolist()}; symmetrized"
                        for p, a in zip(probes, asymmetry) if a > SYMMETRY_WARN]
    if not positive_definite(metrics):
        r = next(r for r in range(len(probes)) if not positive_definite(metrics[r:r + 1]))
        raise ConfigError(f"metric is not positive-definite at probe {probes[r].tolist()}")
    structure = config.structure_fn()
    if structure is not None:
        if config.dim % 2 != 0:
            raise ConfigError("J needs an even-dimensional chart")
        square, compat = invariant_residuals(metrics, structure(probes))
        for r in np.flatnonzero(square > J_SQUARE_TOL)[:1]:
            raise ConfigError(f"J^2 + I has residual {square[r]:.3g} at probe {probes[r].tolist()}")
        bound = J_SQUARE_TOL * np.maximum(1.0, np.max(np.abs(metrics), axis=(1, 2)))
        for r in np.flatnonzero(compat > bound)[:1]:
            config.incompatibility = (f"J is not g-compatible: g(J., J.) - g has "
                                      f"residual {compat[r]:.3g} at probe {probes[r].tolist()}")
    for name in config.maps:
        config.map_fn(name)[1](probes)


def to_chart(config: GeoConfig, name: str = "user"):
    """Build (Chart, AlmostComplexField | None) from a parsed config.

    A structure must be g-compatible, g(J., J.) = g, at the probe points
    (checked by ``parse``); otherwise ``ConfigError`` is raised.
    """
    box = Box(tuple(a for a, _ in config.domain), tuple(b for _, b in config.domain))
    metric_fn = config.metric_fn()
    chart = Chart(dim=config.dim, box=box, metric_fn=metric_fn, name=name)
    structure_fn = config.structure_fn()
    structure = None
    if structure_fn is not None:
        if config.incompatibility is not None:
            raise ConfigError(config.incompatibility)
        structure = AlmostComplexField(chart, structure_fn)
    return chart, structure


def to_map(config: GeoConfig, name: str, source_chart=None, structure=None):
    """Build a MapSpec for a named config map; the target is a flat chart."""
    from .catalog import multiplication_by_i
    from .maps import MapSpec

    if source_chart is None:
        source_chart, structure = to_chart(config)
    target_dim, fn = config.map_fn(name)
    target = Chart(dim=target_dim,
                   box=Box((-1e9,) * target_dim, (1e9,) * target_dim),
                   metric_fn=constant(np.eye(target_dim)), name=f"{name}-target")
    target_structure = None
    if target_dim % 2 == 0 and structure is not None:
        target_structure = AlmostComplexField(
            target, constant(multiplication_by_i(target_dim // 2)))
    return MapSpec(source_chart, target, fn, source_structure=structure,
                   target_structure=target_structure, name=name)
