import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermkit import cli, geodsl
from hermkit.errors import (ConfigError, DimensionMismatch, DslError,
                            DslSyntaxError, EvaluationError, UnknownSymbol)
from hermkit.hermitian import dj_stack
from test_manifold import chart_gamma

TORUS_SRC = """
# flat torus with the usual structure
dim = 2
domain x1 = [0.0, 6.283185307179586]
domain x2 = [0.0, 6.283185307179586]
g = [[1, 0], [0, 1]]
J = [[0, -1], [1, 0]]
map square -> 2 = [x1^2 - x2^2, 2*x1*x2]
"""

SPHERE_SRC = """
dim = 2
domain x1 = [0.3, 2.8]
domain x2 = [0.0, 6.0]
g[1][1] = 1
g[2][2] = sin(x1)^2
"""


def test_parse_identity_metric():
    config = geodsl.parse("dim = 2\ng = [[1, 0], [0, 1]]")
    fn = config.metric_fn()
    npt.assert_allclose(fn(np.array([[0.3, -0.4]])), [np.eye(2)])


def test_parse_elementwise_metric_matches_oracle():
    config = geodsl.parse(SPHERE_SRC)
    fn = config.metric_fn()
    thetas = (0.5, 1.0, 2.0)
    npt.assert_allclose(fn(np.array([[theta, 1.0] for theta in thetas])),
                        [np.diag([1.0, math.sin(theta) ** 2]) for theta in thetas], atol=1e-15)


def test_parse_dangling_comma_is_syntax_error():
    with pytest.raises(DslSyntaxError) as err:
        geodsl.parse("dim = 2\ng = [[1,]")
    assert err.value.line == 2
    assert err.value.col == 9


@pytest.mark.parametrize("src, line, col, got", [
    ("dim = 1\nmap f -> 1 = [x\u00b2]", 2, 16, "\u00b2"),       # superscript two
    ("dim = \u00b2", 1, 7, "\u00b2"),
    ("dim = 2\ng = [[1, 0], [0, 1]]\nmap f -> 1 = [x\u0661 + x2]", 3, 16, "\u0661"),  # Arabic-Indic one
])
def test_numbers_and_names_are_ascii(src, line, col, got):
    """A non-ASCII digit is no token: it neither reaches int() nor reads as an ASCII one."""
    with pytest.raises(DslSyntaxError) as err:
        geodsl.parse(src)
    assert (err.value.line, err.value.col) == (line, col)
    assert f"got {got!r}" in str(err.value)


@pytest.mark.parametrize("src, col, expected", [
    ("dim = 1e999", 7, "a positive integer dimension"),
    ("dim = 2.5", 7, "a positive integer dimension"),
    ("dim = 2\ng[1][1e999] = 1", 6, "1-based indices"),
    ("dim = 2\ng[1.5][1] = 1", 3, "1-based indices"),
    ("dim = 2\nmap f -> 1e999 = [x1]", 10, "a positive target dimension"),
    ("dim = 2\nmap f -> 1.5 = [x1]", 10, "a positive target dimension"),
])
def test_counts_and_indices_are_positive_integers(src, col, expected):
    """An overflowing or fractional count or index is a syntax error at its token,
    not an OverflowError and not a silent truncation."""
    with pytest.raises(DslSyntaxError, match=expected) as err:
        geodsl.parse(src)
    assert (err.value.line, err.value.col) == (src.count("\n") + 1, col)


@pytest.mark.parametrize("text, tokens", [
    (".5", [("NUMBER", ".5", 1)]),
    ("5.", [("NUMBER", "5.", 1)]),
    ("1e+5", [("NUMBER", "1e+5", 1)]),
    ("1e", [("NUMBER", "1", 1), ("IDENT", "e", 2)]),
    ("1.2.3", [("NUMBER", "1.2", 1), ("NUMBER", ".3", 4)]),
    ("->", [("SYMBOL", "->", 1)]),
    (" x_1 -1.5E-3 # - x", [("IDENT", "x_1", 2), ("SYMBOL", "-", 6), ("NUMBER", "1.5E-3", 7)]),
])
def test_tokens_and_columns(text, tokens):
    found = geodsl._tokenize_line(text, 4)
    assert [(t.kind, t.text, t.col) for t in found] == tokens + [("END", "", len(text) + 1)]
    assert {t.line for t in found} == {4}


def test_a_character_that_starts_no_token_is_named():
    with pytest.raises(DslSyntaxError, match=r"line 2, col 4: expected a token \(got '\$'\)"):
        geodsl._tokenize_line("x1 $ 2", 2)


@pytest.mark.parametrize("src,value", [
    ("2+3*4^2", 50.0),
    ("2^3^2", 512.0),          # right-associative
    ("6/3/2", 1.0),            # left-associative
    ("2^-1", 0.5),
    ("(2+3)*4", 20.0),
])
def test_expression_precedence(src, value):
    expr = geodsl.parse_expr(src)
    assert geodsl.evaluate(expr, []) == value


def test_unary_minus_binds_looser_than_power():
    expr = geodsl.parse_expr("-x1^2", dim=1)
    assert geodsl.evaluate(expr, [3.0]) == -9.0


def test_atan2_against_library():
    expr = geodsl.parse_expr("atan2(x2, x1)", dim=2)
    npt.assert_allclose(geodsl.evaluate(expr, [1.0, 1.0]), math.pi / 4)


@pytest.mark.parametrize("src,point", [
    ("sqrt(x1)", [-1.0]),
    ("log(x1)", [0.0]),
    ("x1/0", [1.0]),
    ("10^(10^10)", [0.0]),
    ("0/0", [1.0]),
    ("log(0)", [1.0]),
    ("sqrt(-1)", [1.0]),
    ("(-8)^(1/3)", [1.0]),
    ("x1/x1", [0.0]),
    ("2/x1", [0.0]),
    ("(x1 - 9)^(1/3)", [1.0]),
    ("exp(x1)", [1000.0]),
    ("x1 * x1", [1e200]),
])
def test_evaluation_domain_errors(src, point):
    """evaluate raises, and the compiled stack raises the same message."""
    expr = geodsl.parse_expr(src, dim=1)
    with pytest.raises(EvaluationError) as ref:
        geodsl.evaluate(expr, point)
    with pytest.raises(EvaluationError) as stacked:
        geodsl.compile_exprs([expr])(np.array([point, [0.5]]))
    assert str(stacked.value) == str(ref.value)


def test_overflow_that_recovers_matches_evaluate():
    """x1 * 10^308 overflows to inf, and 1/inf is 0.0 on both paths."""
    expr = geodsl.parse_expr("1/(x1 * 10^308)", dim=1)
    assert geodsl.evaluate(expr, [10.0]) == 0.0
    assert geodsl.compile_exprs([expr])(np.array([[10.0], [0.5]])).tolist() == [[0.0], [2e-308]]


def test_evaluation_error_names_expression_and_point():
    expr = geodsl.parse_expr("log(x1 - 1)", dim=1)
    with pytest.raises(EvaluationError, match=r"log\(") as err:
        geodsl.evaluate(expr, [0.5])
    assert "[0.5]" in str(err.value)
    expr = geodsl.parse_expr("x1 * 10^308", dim=1)  # overflows to inf, no exception
    with pytest.raises(EvaluationError, match=r"x1 \* 10") as err:
        geodsl.evaluate(expr, [10.0])
    assert "inf" in str(err.value) and "[10.0]" in str(err.value)


def _tree(children):
    one = sorted(name for name, (arity, _) in geodsl.FUNCTIONS.items() if arity == 1)
    return (st.builds(geodsl.Neg, children)
            | st.builds(geodsl.BinOp, st.sampled_from("+-*/^"), children, children)
            | st.builds(lambda name, a: geodsl.Call(name, (a,)), st.sampled_from(one), children)
            | st.builds(lambda a, b: geodsl.Call("atan2", (a, b)), children, children))


_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 0.5, -8.0, 1.0 / 3.0, 10.0, 1e308,
                           1e-300, 3.7]) | st.floats(-50.0, 50.0)
_EXPRS = st.recursive(st.builds(geodsl.Num, _VALUES) | st.builds(geodsl.Coord, st.integers(1, 2)),
                      _tree, max_leaves=10)


def _outcome(f):
    try:
        return f()
    except EvaluationError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(_EXPRS, min_size=1, max_size=3),
       st.lists(st.tuples(_VALUES, _VALUES), min_size=1, max_size=5))
def test_compiled_stack_equals_evaluate_row_by_row(exprs, rows):
    """On any stack, the compiled expressions give what evaluate gives at each
    row, bit for bit, or raise the EvaluationError it raises first."""
    stack = np.array(rows)
    ref = _outcome(lambda: np.array([[geodsl.evaluate(e, p) for e in exprs] for p in stack]))
    got = _outcome(lambda: geodsl.compile_exprs(exprs)(stack))
    if isinstance(ref, str):
        assert got == ref
    else:
        assert np.array_equal(got, ref)


def test_compiled_entries_that_differ_in_the_sign_of_a_zero_stay_apart():
    """x1*0.0 and x1*-0.0 compare equal as trees but differ in value, so they
    compile to two columns; repeated entries share one."""
    plus, minus = (geodsl.BinOp("*", geodsl.Coord(1), geodsl.Num(z)) for z in (0.0, -0.0))
    assert plus == minus
    values = geodsl.compile_exprs([plus, minus, plus])(np.array([[2.0], [-3.0]]))
    assert np.signbit(values).tolist() == [[False, True, False], [True, False, True]]


def test_a_subtree_shared_by_two_entries_runs_its_kernel_once_per_stack(monkeypatch):
    """x1^2 occurs in both expressions: one step computes it for the stack."""
    calls = []
    power = geodsl._KERNELS["^"]
    monkeypatch.setitem(geodsl._KERNELS, "^", lambda *args: calls.append(1) or power(*args))
    fn = geodsl.compile_exprs([geodsl.parse_expr("x1^2 + x2", dim=2),
                               geodsl.parse_expr("3*x1^2", dim=2)])
    for rows in (1, 4):
        calls.clear()
        values = fn(np.full((rows, 2), 1.5))
        assert len(calls) == 1
        assert values.tolist() == [[3.75, 6.75]] * rows


def test_subtrees_that_differ_in_the_sign_of_a_zero_keep_their_own_steps():
    """atan2(x1*0.0, -1) and atan2(x1*-0.0, -1) compare equal as trees, but at
    x1 > 0 they are +pi and -pi: each keeps its own steps."""
    plus, minus = (geodsl.Call("atan2", (geodsl.BinOp("*", geodsl.Coord(1), geodsl.Num(z)),
                                         geodsl.Num(-1.0))) for z in (0.0, -0.0))
    assert plus == minus
    stack = np.array([[2.0], [0.5]])
    got = geodsl.compile_exprs([plus, minus])(stack)
    ref = np.array([[geodsl.evaluate(e, p) for e in (plus, minus)] for p in stack])
    assert got.tobytes() == ref.tobytes()
    assert got[:, 0].tolist() == [math.pi] * 2 and got[:, 1].tolist() == [-math.pi] * 2


def _flip_zeros(tree):
    """``tree`` with every 0.0 literal made -0.0 and every -0.0 made 0.0: a tree
    that compares equal to it."""
    if isinstance(tree, geodsl.Num):
        return geodsl.Num(-tree.value) if tree.value == 0.0 else tree
    if isinstance(tree, geodsl.Neg):
        return geodsl.Neg(_flip_zeros(tree.arg))
    if isinstance(tree, geodsl.BinOp):
        return geodsl.BinOp(tree.op, _flip_zeros(tree.left), _flip_zeros(tree.right))
    if isinstance(tree, geodsl.Call):
        return geodsl.Call(tree.name, tuple(map(_flip_zeros, tree.args)))
    return tree


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_EXPRS, _EXPRS, st.lists(st.tuples(_VALUES, _VALUES), min_size=1, max_size=5))
def test_entries_that_reuse_subtrees_equal_evaluate_bit_for_bit(a, b, rows):
    """Entries built from shared subtrees, and a twin of a that differs only in
    the sign of its zeros, give evaluate's bits at each row, or raise the
    EvaluationError it raises first."""
    exprs = [geodsl.BinOp("+", a, b), geodsl.BinOp("*", a, a), geodsl.Neg(b), a, _flip_zeros(a)]
    stack = np.array(rows)
    ref = _outcome(lambda: np.array([[geodsl.evaluate(e, p) for e in exprs] for p in stack]))
    got = _outcome(lambda: geodsl.compile_exprs(exprs)(stack))
    if isinstance(ref, str):
        assert got == ref
    else:
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("src,line", [
    ("g = [[1, 0], [0, x3^2 + 1]]\ndim = 2", 1),
    ("map m -> 1 = [x7]\ndim = 2\ng = [[1, 0], [0, 1]]", 1),
    ("dim = 3\ng = [[1, 0], [0, 1]]\nJ = [[0, -1], [1, x3]]\ndim = 2", 3),
])
def test_coordinate_beyond_a_later_dim_names_its_line(src, line):
    with pytest.raises(DimensionMismatch, match=rf"^line {line}: coordinate x\d exceeds"):
        geodsl.parse(src)


@pytest.mark.parametrize("entry,line", [
    ("g = [[1, 0], [0, 1 + log(x1)]]", 4),
    ("g[2][2] = 1 + log(x1)", 4),
    ("J = [[0, -1], [1, log(x1)]]", 5),
    ("map f -> 1 = [x2 + log(x1)]", 5),
])
def test_evaluation_error_names_the_config_line(entry, line):
    """A g, J or map entry that fails names its config line, the expression
    and the point."""
    lines = ["dim = 2", "domain x1 = [-1, 1]", "", entry]
    if not entry.startswith("g"):
        lines.insert(3, "g = [[1, 0], [0, 1]]")
    with pytest.raises(EvaluationError, match=rf"^line {line}: math domain error in .*"
                                              rf"log\(x1\) at \[0\.0, 0\.0\]$"):
        geodsl.parse("\n".join(lines))


def test_unknown_symbol_and_dimension_mismatch():
    with pytest.raises(UnknownSymbol):
        geodsl.parse_expr("foo(x1)", dim=1)
    with pytest.raises(UnknownSymbol):
        geodsl.parse_expr("y1 + 1", dim=1)
    with pytest.raises(DimensionMismatch):
        geodsl.parse("dim = 2\ng = [[1, 0], [0, x3]]")


def test_function_arity_checked():
    with pytest.raises(DslSyntaxError):
        geodsl.parse_expr("sin(x1, x2)", dim=2)
    with pytest.raises(DslSyntaxError):
        geodsl.parse_expr("atan2(x1)", dim=2)


DEEP = "(" * 4000 + "1" + ")" * 4000

#: Every error branch of ``parse`` and ``_validate``: the source, then the class,
#: line, col (None where the exception has none) and message of what it raises.
PARSE_ERRORS = [
    ("dim = 2\ng = [[1, 0], [0, 1]]\nmap f -> 1 = [x1 $ 2]", DslSyntaxError, 3, 18,
     "line 3, col 18: expected a token (got '$')"),
    # edges of the token scan: a bare '.', a character no token starts with after a
    # valid one, a tab, a number run into a name, and a '$' in a comment
    ("dim = 2\ng = [[1, 0], [0, 1]]\nmap f -> 1 = [x1 + .]", DslSyntaxError, 3, 20,
     "line 3, col 20: expected a token (got '.')"),
    ("dim = 2\ng = [[1, 0], [0, 1]]\nmap f -> 1 = [x1 > 2]", DslSyntaxError, 3, 18,
     "line 3, col 18: expected a token (got '>')"),
    ("dim = 2\ng = [[1, 0], [0, 1]]\nmap f -> 1 = [x1 - > 2]", DslSyntaxError, 3, 20,
     "line 3, col 20: expected a token (got '>')"),
    ("dim = 2\ng = [[1, 0], [0, 1]]\n\tmap f -> 1 = [x1 $]", DslSyntaxError, 3, 19,
     "line 3, col 19: expected a token (got '$')"),
    ("dim = 2\ng = [[1, 0], [0, 1]]\nmap f -> 1 = [x1 + 2.5e]", DslSyntaxError, 3, 23,
     "line 3, col 23: expected ]"),
    ("dim = 2\ng = [[1, 0], [0, 1]]\nmap f -> 1 = [x1 # $ ]", DslSyntaxError, 3, 23,
     "line 3, col 23: expected ]"),
    ("5 = 3", DslSyntaxError, 1, 1, "line 1, col 1: expected ident"),
    ("dim 2", DslSyntaxError, 1, 5, "line 1, col 5: expected ="),
    ("dim = x1", DslSyntaxError, 1, 7, "line 1, col 7: expected number"),
    ("dim = 0", DslSyntaxError, 1, 7, "line 1, col 7: expected a positive integer dimension"),
    ("dim = 2\nfoo = 3", DslSyntaxError, 2, 1,
     "line 2, col 1: expected 'dim', 'domain', 'g', 'J' or 'map'"),
    ("dim = 2\ng = [[1, 0], [0, 1]] 7", DslSyntaxError, 2, 22,
     "line 2, col 22: expected end of line"),
    ("dim = 2\ng = [[1, 0], [0, )]]", DslSyntaxError, 2, 18,
     "line 2, col 18: expected a number, coordinate, function or '('"),
    ("dim = 2\ng = [[1, 0], [0, 2 * - ]]", DslSyntaxError, 2, 24,
     "line 2, col 24: expected a number, coordinate, function or '('"),
    ("dim = 2\ng = [[1, 0], [0, (1 + 2]]", DslSyntaxError, 2, 24, "line 2, col 24: expected )"),
    ("dim = 2\ng = [[1, 0], [0, sin(x1, x2)]]", DslSyntaxError, 2, 18,
     "line 2, col 18: expected 1 argument(s) to sin"),
    ("dim = 2\ng = [[1, 0], [0, atan2(x1)]]", DslSyntaxError, 2, 18,
     "line 2, col 18: expected 2 argument(s) to atan2"),
    ("dim = 2\ng = [[1, 0], [0, sin x1]]", DslSyntaxError, 2, 22, "line 2, col 22: expected ("),
    ("dim = 2\ng = [[1, 0], [0, x0]]", UnknownSymbol, None, None,
     "line 2: 'x0' is not a coordinate"),
    ("dim = 2\ng = [[1, 0], [0, x3]]", DimensionMismatch, None, None,
     "line 2: coordinate x3 exceeds dimension 2"),
    ("dim = 2\ng = [[1, 0], [0, y1]]", UnknownSymbol, None, None,
     "line 2, col 18: unknown symbol 'y1'"),
    ("dim = 2\ng[0][1] = 1", DslSyntaxError, 2, 3, "line 2, col 3: expected 1-based indices"),
    ("dim = 2\ng[1] = 1", DslSyntaxError, 2, 6, "line 2, col 6: expected ["),
    ("dim = 2\ng = [1, 0]", DslSyntaxError, 2, 6, "line 2, col 6: expected ["),
    ("dim = 2\nmap f = [x1]", DslSyntaxError, 2, 7, "line 2, col 7: expected ->"),
    ("dim = 2\nmap -> 1 = [x1]", DslSyntaxError, 2, 5, "line 2, col 5: expected ident"),
    ("dim = 2\nmap f -> 2 = [x1]", DimensionMismatch, None, None,
     "line 2: map 'f' declares target dimension 2 but has 1 components"),
    ("dim = 2\ndomain y1 = [0, 1]", DslSyntaxError, 2, 8,
     "line 2, col 8: expected a coordinate name like x1"),
    ("dim = 2\ndomain x1 = [0 1]", DslSyntaxError, 2, 16, "line 2, col 16: expected ,"),
    ("dim = 2\ndomain x1 = [x1, 1]", DslSyntaxError, 2, 1, "line 2, col 1: expected a "
     "constant expression (coordinate x1 beyond point of dimension 0)"),
    ("dim = 2\ndomain x1 = [0, log(0)]", DslSyntaxError, 2, 1, "line 2, col 1: expected a "
     "constant expression (math domain error in log(0.0) at [])"),
    ("dim = 2\ndomain x1 = [1, 1]", ConfigError, None, None,
     "line 2: empty domain interval for x1"),
    ("dim = 2\ndomain x3 = [0, 1]\ng = [[1, 0], [0, 1]]", DimensionMismatch, None, None,
     "domain declared for x3 but dim = 2"),
    ("g = [[1, 0], [0, 1]]", ConfigError, None, None, "no 'dim = <n>' statement"),
    ("dim = 2", ConfigError, None, None,
     "no metric given (use 'g = [[...]]' or 'g[i][j] = ...')"),
    ("g = [[1, 0], [0, x3^2 + 1]]\ndim = 2", DimensionMismatch, None, None,
     "line 1: coordinate x3 exceeds dimension 2"),
    ("dim = 2\ng = [[1, 0], [0, 1]]\ng[1][1] = 2", ConfigError, None, None,
     "g: mix of whole-matrix and elementwise assignments"),
    ("dim = 2\ng = [[1, 0, 0], [0, 1, 0]]", DimensionMismatch, None, None,
     "g must be a 2 x 2 matrix"),
    ("dim = 2\ng = [[1, 0], [0, 1]]\nJ = [[0, -1], [1, 0], [0, 0]]", DimensionMismatch,
     None, None, "J must be a 2 x 2 matrix"),
    ("dim = 2\ng[3][1] = 1", DimensionMismatch, None, None, "g[3][1] exceeds dimension 2"),
    ("dim = 2\ng = [[1, 0], [0, " + DEEP + "]]", DslSyntaxError, 0, 0,
     "line 0, col 0: expected a less deeply nested input"),
    (b"dim = \xff", DslSyntaxError, 0, 0, "line 0, col 0: expected UTF-8 text ('utf-8' codec "
     "can't decode byte 0xff in position 6: invalid start byte)"),
    # _validate: the first probe is the box centre, the others are seeded draws
    ("dim = 2\ng = [[1, 0], [0, -1]]", ConfigError, None, None,
     "metric is not positive-definite at probe [0.0, 0.0]"),
    ("dim = 2\ndomain x1 = [-1, 1]\ng = [[1, 0], [0, x1 + 0.2]]", ConfigError, None, None,
     "metric is not positive-definite at probe [-0.7344423617020885, -0.7735557831543535]"),
    ("dim = 1\ng = [[1]]\nJ = [[0]]", ConfigError, None, None,
     "J needs an even-dimensional chart"),
    ("dim = 2\ng = [[1,0],[0,1]]\nJ = [[1, 0], [0, 1]]", ConfigError, None, None,
     "J^2 + I has residual 2 at probe [0.0, 0.0]"),
    ("dim = 2\ndomain x1 = [-1, 1]\ng = [[1, 0], [0, 1]]\nJ = [[x1, -1], [1, 0]]", ConfigError,
     None, None, "J^2 + I has residual 0.219 at probe [0.21913869971432698, -0.36834125797780753]"),
    # J is incompatible at the first probe, J^2 + I fails at the second
    ("dim = 2\ndomain x1 = [-1, 1]\ng = [[1, 0], [0, 4]]\nJ = [[x1, -1], [1, 0]]",
     ConfigError, None, None,
     "J^2 + I has residual 0.219 at probe [0.21913869971432698, -0.36834125797780753]"),
    ("dim = 2\ndomain x1 = [-1, 1]\ng = [[1, 0], [0, 1 + log(x1)]]", EvaluationError, None,
     None, "line 3: math domain error in 1.0 + log(x1) at [0.0, 0.0]"),
    ("dim = 2\ndomain x1 = [-1, 1]\ng = [[1, 0], [0, 1]]\nJ = [[0, -1], [1, log(x1)]]",
     EvaluationError, None, None, "line 4: math domain error in log(x1) at [0.0, 0.0]"),
    ("dim = 2\ndomain x1 = [-1, 1]\ng = [[1, 0], [0, 1]]\nmap f -> 1 = [x2 + log(x1)]",
     EvaluationError, None, None, "line 4: math domain error in x2 + log(x1) at [0.0, 0.0]"),
]


@pytest.mark.parametrize("src, cls, line, col, message", PARSE_ERRORS)
def test_parse_errors_name_their_place(src, cls, line, col, message):
    with pytest.raises(DslError) as err:
        geodsl.parse(src)
    exc = err.value
    assert (type(exc), getattr(exc, "line", None), getattr(exc, "col", None), str(exc)) == (
        cls, line, col, message)


@pytest.mark.parametrize("text, col, expected", [
    ("1 +", 4, "a number, coordinate, function or '('"),
    ("-", 2, "a number, coordinate, function or '('"),
    ("(1", 3, ")"),
    ("1 2", 3, "end of expression"),
    ("sin", 4, "("),
])
def test_parse_expr_errors_name_their_place(text, col, expected):
    with pytest.raises(DslSyntaxError) as err:
        geodsl.parse_expr(text)
    assert (err.value.line, err.value.col, err.value.expected) == (1, col, expected)


def test_parse_expr_too_deep_is_a_syntax_error():
    """Where the nesting runs out depends on the interpreter's recursion limit; the
    error names the column of the token reached there, an opening parenthesis."""
    with pytest.raises(DslSyntaxError, match="expected a less deeply nested expression") as err:
        geodsl.parse_expr(DEEP, line_no=7)
    assert err.value.line == 7
    assert 1 < err.value.col <= 4000 and DEEP[err.value.col - 1] == "("


@pytest.mark.parametrize("src, warnings, incompatibility", [
    ("dim = 2\ndomain x1 = [-1, 1]\ng = [[1, 0.001 * x1], [0, 1]]", [
        "metric asymmetry 0.000219 at probe [0.21913869971432698, -0.36834125797780753]; "
        "symmetrized",
        "metric asymmetry 0.000734 at probe [-0.7344423617020885, -0.7735557831543535]; "
        "symmetrized",
        "metric asymmetry 0.000501 at probe [0.5012323827204359, 0.6604089236443549]; "
        "symmetrized",
        "metric asymmetry 0.000171 at probe [0.17061724122748778, 0.3671944975743975]; "
        "symmetrized"], None),
    ("dim = 2\ndomain x1 = [-1, 1]\ng = [[1, 0], [0, 1 + x1^2]]\nJ = [[0, -1], [1, 0]]", [],
     "J is not g-compatible: g(J., J.) - g has residual 0.048 at probe "
     "[0.21913869971432698, -0.36834125797780753]"),
    ("dim = 2\ng = [[1, 0], [0, 4]]\nJ = [[0, -1], [1, 0]]", [],
     "J is not g-compatible: g(J., J.) - g has residual 3 at probe [0.0, 0.0]"),
])
def test_validation_names_each_probe_in_order(src, warnings, incompatibility):
    """Asymmetry warns at every probe where it is seen, in probe order; an
    incompatible J is recorded at the first probe where it is seen."""
    config = geodsl.parse(src)
    assert (config.warnings, config.incompatibility) == (warnings, incompatibility)


_PARSED = st.recursive(st.builds(geodsl.Num, st.floats(0.0, 1e6) | st.sampled_from([1e-300, 1e308]))
                       | st.builds(geodsl.Coord, st.integers(1, 2)), _tree, max_leaves=12)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_PARSED)
def test_printed_tree_parses_back_to_itself(tree):
    """Trees with the parser's literals (no negative numbers) parse back from
    their printed form, so precedence and associativity are the printer's."""
    assert geodsl.parse_expr(geodsl.pretty(tree), dim=2) == tree


def test_structure_square_identity_rejected():
    with pytest.raises(ConfigError):
        geodsl.parse("dim = 2\ng = [[1,0],[0,1]]\nJ = [[1, 0], [0, 1]]")


def test_non_positive_metric_rejected():
    with pytest.raises(ConfigError):
        geodsl.parse("dim = 2\ng = [[1, 0], [0, -1]]")


def test_metric_symmetrized_with_warning():
    config = geodsl.parse("dim = 2\ng = [[1, 0.001], [0, 1]]")
    assert config.warnings
    fn = config.metric_fn()
    (g,) = fn(np.zeros((1, 2)))
    npt.assert_allclose(g, g.T)
    npt.assert_allclose(g[0, 1], 0.0005)


def test_map_component_count_mismatch():
    with pytest.raises(DimensionMismatch):
        geodsl.parse("dim = 2\ng = [[1,0],[0,1]]\nmap f -> 2 = [x1]")


def test_missing_dim_or_metric():
    with pytest.raises(ConfigError):
        geodsl.parse("g = [[1]]")
    with pytest.raises(ConfigError):
        geodsl.parse("dim = 1")


def test_round_trip_torus_config():
    config = geodsl.parse(TORUS_SRC)
    again = geodsl.parse(config.to_source())
    assert again.dim == config.dim
    assert again.domain == config.domain
    assert again.metric == config.metric
    assert again.structure == config.structure
    assert again.maps == config.maps
    assert config.to_source() == again.to_source()


def _config_corpus():
    """50 structurally varied valid configs."""
    corpus = []
    funcs = ["sin", "cos", "exp"]
    for k in range(50):
        f = funcs[k % 3]
        scale = 1.0 + (k % 7) * 0.25
        entries = f"[[{scale} + {f}(x1)^2, 0], [0, {scale}]]"
        lines = [f"dim = 2", f"domain x1 = [0.1, {1.0 + k % 5}]",
                 "domain x2 = [-1.0, 1.0]", f"g = {entries}"]
        if k % 2 == 0:
            lines.append("J = [[0, -1], [1, 0]]")
        if k % 4 == 0:
            lines.append(f"map m{k} -> 1 = [x1 * {1 + k} - x2 / 2]")
        corpus.append("\n".join(lines))
    return corpus


def test_round_trip_property_on_corpus():
    """parse -> print -> parse is the identity on the AST for 50 valid configs."""
    corpus = _config_corpus()
    assert len(corpus) == 50
    for src in corpus:
        config = geodsl.parse(src)
        printed = config.to_source()
        reparsed = geodsl.parse(printed)
        assert reparsed.metric == config.metric
        assert reparsed.structure == config.structure
        assert reparsed.maps == config.maps
        assert reparsed.to_source() == printed


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.binary(max_size=120))
def test_parser_never_panics_on_bytes(data):
    """Arbitrary bytes produce a config or a structured DslError, nothing else."""
    try:
        geodsl.parse(data)
    except DslError:
        pass


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.text(alphabet="dimgJxap[]()^*/+-=.,0123456789 \n", max_size=120))
def test_parser_never_panics_on_near_miss_text(text):
    try:
        geodsl.parse(text)
    except DslError:
        pass


def test_to_chart_and_map(cfg):
    config = geodsl.parse(TORUS_SRC)
    chart, structure = geodsl.to_chart(config)
    assert chart.dim == 2
    assert structure is not None
    npt.assert_allclose(structure(np.array([[1.0, 1.0]])),
                        np.array([[[0.0, -1.0], [1.0, 0.0]]]))
    spec = geodsl.to_map(config, "square", cfg)
    npt.assert_allclose(spec(np.array([[2.0, 1.0]])), [[3.0, 4.0]])
    assert spec.source_structure is not None
    assert spec.target_structure is not None


def test_config_functions_run_once_per_stack(monkeypatch, cfg):
    """parse probes g, J and the map on one stack of probe points; a
    Christoffel or d J stencil evaluates g or J once."""
    calls = []
    compile_exprs = geodsl.compile_exprs

    def recording(exprs, lines=None):
        fn = compile_exprs(exprs, lines)

        def stacked(points):
            calls.append((len(exprs), np.shape(points)))
            return fn(points)
        return stacked

    monkeypatch.setattr(geodsl, "compile_exprs", recording)
    config = geodsl.parse(TORUS_SRC)
    assert calls == [(4, (5, 2)), (4, (5, 2)), (2, (5, 2))]
    calls.clear()
    chart, structure = geodsl.to_chart(config)
    x = np.array([[1.0, 2.0]])
    chart_gamma(chart, x, cfg)
    dj_stack(chart, structure, x, cfg)
    assert calls == [(4, (1, 2)), (4, (8, 2)), (4, (8, 2))]


#: A 4-dimensional config in the style of the benchmark's generator: a conformally
#: flat metric, the standard J and two maps.
CONFORMAL_SRC = """# conformal
dim = 4
domain x1 = [-1.0, 1.0]
domain x2 = [-1.0, 1.0]
domain x3 = [-1.0, 1.0]
domain x4 = [-1.0, 1.0]
g = [[exp(2*(0.28*sin(1.03*x1 + 0.83*x3))), 0.0, 0.0, 0.0], \
[0.0, exp(2*(0.28*sin(1.03*x1 + 0.83*x3))), 0.0, 0.0], \
[0.0, 0.0, exp(2*(0.28*sin(1.03*x1 + 0.83*x3))), 0.0], \
[0.0, 0.0, 0.0, exp(2*(0.28*sin(1.03*x1 + 0.83*x3)))]]
J = [[0.0, -1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, -1.0], [0.0, 0.0, 1.0, 0.0]]
map holo -> 2 = [-0.09*x1^2 + 0.28*x1*x2 - 1.06*x1 + 0.09*x2^2, -0.14*x1^2 - 0.18*x1*x2]
map quad -> 2 = [0.86*x1^2 + 0.65*x2^2 + 0.54*x3, 0.88*x1*x3 + 0.52*x4]
"""


def _count_calls(monkeypatch, *names):
    """Wrap each named geodsl function to record the arguments of its calls."""
    calls = {name: [] for name in names}
    for name in names:
        fn = getattr(geodsl, name)
        monkeypatch.setattr(geodsl, name, lambda *args, fn=fn, seen=calls[name]:
                            seen.append(args) or fn(*args))
    return calls


@pytest.mark.parametrize("src", [TORUS_SRC, CONFORMAL_SRC], ids=["torus", "conformal"])
def test_a_config_that_parses_is_scanned_once_and_never_printed(monkeypatch, src):
    """Columns and printed forms are error-path work: a config that parses
    needs neither."""
    calls = _count_calls(monkeypatch, "_tokenize_line", "pretty")
    geodsl.parse(src)
    assert calls == {"_tokenize_line": [], "pretty": []}


def test_a_bad_line_is_scanned_for_columns_once(monkeypatch):
    """The column of an error comes from one more scan of its line, and only that."""
    bad = "map broken -> 2 = [x1 + x2, x3 *]"
    calls = _count_calls(monkeypatch, "_tokenize_line")
    with pytest.raises(DslSyntaxError, match="line 11, col 33: expected a number"):
        geodsl.parse(CONFORMAL_SRC + bad)
    assert calls == {"_tokenize_line": [(bad, 11)]}


INCOMPATIBLE_J_SRC = """
dim = 2
g = [[1, 0], [0, 4]]
J = [[0, -1], [1, 0]]
"""


def test_to_chart_rejects_incompatible_structure():
    config = geodsl.parse(INCOMPATIBLE_J_SRC)
    with pytest.raises(ConfigError, match="g-compatible"):
        geodsl.to_chart(config)


def test_classify_incompatible_structure_exits_2(tmp_path, capsys):
    path = tmp_path / "incompatible.geo"
    path.write_text(INCOMPATIBLE_J_SRC, encoding="utf-8")
    assert cli.main(["classify", "--config", str(path), "--points", "2"]) == 2
    assert "g-compatible" in capsys.readouterr().err


BAD_LOG_SRC = """
dim = 2
domain x1 = [0.2, 1.7]
domain x2 = [0.2, 1.7]
g = [[1, 0], [0, 1]]
J = [[0, -1], [1, 0]]
map f -> 2 = [log(x1 - 1), x2]
"""


def test_check_map_evaluation_error_names_expression(tmp_path, capsys):
    path = tmp_path / "bad-log.geo"
    path.write_text(BAD_LOG_SRC, encoding="utf-8")
    assert cli.main(["check-map", "--config", str(path), "--map", "f",
                     "--points", "2"]) == 2
    err = capsys.readouterr().err
    assert "log(x1 - 1" in err and "line 7:" in err


def test_deep_nesting_is_structured_error():
    src = "dim = 1\ng = [[" + "(" * 4000 + "1" + ")" * 4000 + "]]"
    try:
        geodsl.parse(src)
    except DslError:
        pass
