import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

import olnum
from olnum.errors import DomainError, FieldMismatchError, ParseError
from olnum.field import (
    ComplexQuad,
    RationalInterval,
    RealQuad,
    sqrt_interval,
)

PHI = RealQuad(1, 1, 2, 5)          # golden mean
BETA = RealQuad(3, 1, 2, 5)         # its square


class TestRealQuad:
    def test_normalization(self):
        x = RealQuad(2, 4, 6, 5)
        assert (x.a, x.b, x.q, x.d) == (1, 2, 3, 5)
        assert RealQuad(3, 2, 1, 1) == RealQuad(5)     # sqrt(1) folds
        assert RealQuad(3, 7, 1, 0) == RealQuad(3)     # sqrt(0) drops
        assert RealQuad(1, 0, -2).q == 2 and RealQuad(1, 0, -2).a == -1
        assert RealQuad(4, 0, 2, 5).d == 0             # rational canonicalizes d

    def test_squarefree_validation(self):
        with pytest.raises(DomainError):
            RealQuad(1, 1, 1, 12)

    def test_mul_golden_mean_square(self):
        assert PHI * PHI == BETA

    def test_add_identity(self):
        x = RealQuad(7, -3, 4, 5)
        assert x + RealQuad(0) == x

    def test_minimal_polynomial(self):
        # beta + 1/beta = 3 from t^2 - 3t + 1
        assert (BETA - RealQuad(3)) + RealQuad(1) / BETA == RealQuad(0)

    def test_sign_cases(self):
        assert RealQuad(0).sign() == 0
        assert RealQuad(3, -1, 1, 5).sign() == 1
        assert RealQuad(2, -1, 1, 5).sign() == -1
        assert RealQuad(-3, 1, 1, 5).sign() == -1
        assert RealQuad(-2, 1, 1, 5).sign() == 1

    def test_sign_agrees_with_high_precision(self):
        import mpmath

        mpmath.mp.dps = 60
        s5 = mpmath.sqrt(5)
        rng = random.Random(42)
        for _ in range(10_000):
            a = rng.randint(-50, 50)
            b = rng.randint(-50, 50)
            q = rng.randint(1, 20)
            x = RealQuad(a, b, q, 5)
            approx = (a + b * s5) / q
            expected = 0 if abs(approx) < mpmath.mpf("1e-40") else (1 if approx > 0 else -1)
            assert x.sign() == expected

    def test_mul_div_roundtrip(self):
        rng = random.Random(1)
        for _ in range(300):
            x = RealQuad(rng.randint(-30, 30), rng.randint(-30, 30), rng.randint(1, 9), 5)
            y = RealQuad(rng.randint(-30, 30), rng.randint(-30, 30), rng.randint(1, 9), 5)
            if y.is_zero():
                continue
            assert (x * y) / y == x

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatchError):
            RealQuad(1, 1, 1, 5) + RealQuad(1, 1, 1, 3)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            RealQuad(1) / RealQuad(0)

    def test_comparisons(self):
        assert RealQuad(1, 1, 2, 5) < RealQuad(2)
        assert RealQuad(0, 1, 1, 5) > 2
        assert abs(RealQuad(-3, 0, 2)) == RealQuad(3, 0, 2)

    def test_pow(self):
        assert BETA**0 == RealQuad(1)
        assert BETA**3 == BETA * BETA * BETA
        assert BETA**-2 == (BETA * BETA).inverse()

    def test_sqrt_exact(self):
        assert (BETA * BETA).sqrt_exact() == BETA
        assert RealQuad(9, 0, 4).sqrt_exact() == RealQuad(3, 0, 2)
        assert RealQuad(3).sqrt_exact(hint_d=3) == RealQuad(0, 1, 1, 3)
        assert RealQuad(1, 0, 3).sqrt_exact(hint_d=3) == RealQuad(0, 1, 3, 3)
        assert RealQuad(7).sqrt_exact(hint_d=3) is None
        assert RealQuad(-1).sqrt_exact() is None

    def test_to_interval_encloses(self):
        import mpmath

        mpmath.mp.dps = 40
        x = RealQuad(3, -2, 7, 5)
        iv = x.to_interval(Fraction(1, 10**9))
        true = (3 - 2 * mpmath.sqrt(5)) / 7
        assert mpmath.mpf(float(iv.lo)) - 1e-9 <= true <= mpmath.mpf(float(iv.hi)) + 1e-9
        assert iv.width() <= Fraction(1, 10**9)

    def test_json_roundtrip(self):
        x = RealQuad(3, -1, 2, 5)
        assert RealQuad.from_dict(x.to_dict()) == x
        assert RealQuad.from_dict(4) == RealQuad(4)
        assert RealQuad.from_dict("3/7") == RealQuad(3, 0, 7)
        with pytest.raises(ParseError):
            RealQuad.from_dict({"nope": 1})


class TestComplexQuad:
    def test_norm_sq_eisenstein(self):
        # z = -1 + omega = (-3/2, sqrt3/2): |z|^2 = 3
        z = ComplexQuad(RealQuad(-3, 0, 2), RealQuad(0, 1, 2, 3))
        assert z.norm_sq() == RealQuad(3)

    def test_conj(self):
        two_i = ComplexQuad(RealQuad(0), RealQuad(2))
        assert two_i.conj() == ComplexQuad(RealQuad(0), RealQuad(-2))

    def test_mul_i_squared(self):
        two_i = ComplexQuad(RealQuad(0), RealQuad(2))
        assert two_i * two_i == ComplexQuad.from_int(-4)

    def test_div(self):
        z = ComplexQuad(RealQuad(3), RealQuad(4))
        w = ComplexQuad(RealQuad(1), RealQuad(-2))
        assert (z / w) * w == z

    def test_abs_interval(self):
        z = ComplexQuad(RealQuad(3), RealQuad(4))
        iv = z.abs_interval(Fraction(1, 10**6))
        assert iv.contains(Fraction(5))


class TestRationalInterval:
    def test_order_validation(self):
        with pytest.raises(DomainError):
            RationalInterval(Fraction(2), Fraction(1))

    def test_arithmetic(self):
        a = RationalInterval(Fraction(1), Fraction(2))
        b = RationalInterval(Fraction(-1), Fraction(3))
        assert (a + b).lo == 0 and (a + b).hi == 5
        assert (a * b).lo == -2 and (a * b).hi == 6
        assert (a - b).lo == -2 and (a - b).hi == 3

    def test_division_through_zero(self):
        a = RationalInterval(Fraction(1), Fraction(2))
        with pytest.raises(DomainError):
            a / RationalInterval(Fraction(-1), Fraction(1))

    def test_sqrt_perfect_square_is_point(self):
        iv = sqrt_interval(Fraction(9, 4), Fraction(1, 10**6))
        assert iv.lo == iv.hi == Fraction(3, 2)

    def test_sqrt_encloses(self):
        iv = sqrt_interval(2, Fraction(1, 10**8))
        assert iv.lo * iv.lo <= 2 <= iv.hi * iv.hi
        assert iv.width() <= Fraction(1, 10**8)


class TestEvalRadical:
    """Radical constants of the presets, enclosed by sqrt_interval arithmetic."""

    def test_eisenstein_dmin_constant(self):
        # oracle (mpmath, 40 digits): 0.3227627305809679863653683808504014284818
        w = Fraction(1, 10**4)
        iv = sqrt_interval(3, w) * (6 - sqrt_interval(7, w)) / 18
        assert iv.width() <= w
        assert iv.contains(Fraction("0.32276273058096798636"))

    def test_knuth_k_constant(self):
        # oracle (mpmath, 40 digits): 1.342560663732730229809204362978650633145
        iv = sqrt_interval(146, Fraction(1, 10**4)) / 9
        assert iv.contains(Fraction("1.3425606637327302298"))

    def test_contains_value_at_higher_precision(self):
        def exprs(w):
            s2, s3, s5, s7 = (sqrt_interval(n, w) for n in (2, 3, 5, 7))
            return (s7 / 2, (6 - s7) / 18, s2 * s3 - s5)

        for coarse, fine in zip(exprs(Fraction(1, 10**3)), exprs(Fraction(1, 10**12))):
            assert coarse.lo <= fine.midpoint() <= coarse.hi

    def test_division_by_zero_interval(self):
        s2 = sqrt_interval(2, Fraction(1, 100))
        with pytest.raises(DomainError):
            RationalInterval.point(1) / (s2 - s2)


# math functions that are exact on ints and Fractions
EXACT_MATH = {"gcd", "isqrt", "ceil", "floor"}


def _float_exempt(path: Path, tree: ast.Module) -> set[int]:
    """Nodes allowed to use floats: the CLI's display f-strings and
    RealQuad.__float__."""
    if path.name == "cli.py":
        roots = [n for n in ast.walk(tree) if isinstance(n, ast.JoinedStr)]
    elif path.name == "field.py":
        roots = [f for c in tree.body if isinstance(c, ast.ClassDef) and c.name == "RealQuad"
                 for f in c.body if isinstance(f, ast.FunctionDef) and f.name == "__float__"]
    else:
        roots = []
    return {id(n) for root in roots for n in ast.walk(root)}


def test_no_float_decides_anything():
    found = []
    for path in sorted(Path(olnum.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exempt = _float_exempt(path, tree)
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if id(node) in exempt:
                continue
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
                found.append(f"{where} float() call")
            elif isinstance(node, ast.Constant) and isinstance(node.value, float):
                found.append(f"{where} float literal {node.value!r}")
            elif isinstance(node, ast.Import) and any(a.name == "math" for a in node.names):
                found.append(f"{where} import math")
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                found += [f"{where} math.{a.name}" for a in node.names if a.name not in EXACT_MATH]
    assert found == []


# module-level state allowed to change: the square-free memo of field
# descriptors, the pinned Eisenstein pairs and the export list
MODULE_STATE = {"_SQUAREFREE_OK", "EISENSTEIN_PAIRS", "__all__"}
_MUTABLE_DISPLAYS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
_MUTABLE_CALLS = {"list", "dict", "set", "defaultdict", "Counter", "OrderedDict", "deque", "bytearray"}


def _functools_cache(node) -> bool:
    if isinstance(node, ast.Name):
        return node.id == "lru_cache"
    if isinstance(node, ast.Attribute):
        return isinstance(node.value, ast.Name) and node.value.id == "functools" and node.attr in ("lru_cache", "cache")
    if isinstance(node, ast.ImportFrom):
        return node.module == "functools" and any(a.name == "cache" for a in node.names)
    return False


def _mutable(value) -> bool:
    if isinstance(value, _MUTABLE_DISPLAYS):
        return True
    return isinstance(value, ast.Call) and isinstance(value.func, ast.Name) and value.func.id in _MUTABLE_CALLS


def test_no_cache_outlives_a_load():
    """Derived constants live on the objects a load builds, so that
    load_preset.cache_clear() drops them all: no lru_cache or functools.cache
    but the one on load_preset, and no mutable container held by a module or
    a class but MODULE_STATE."""
    found = []
    for path in sorted(Path(olnum.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exempt = {id(n) for top in tree.body if isinstance(top, ast.FunctionDef) and top.name == "load_preset"
                  for dec in top.decorator_list for n in ast.walk(dec)}
        found += [f"{path.name}:{n.lineno} functools cache" for n in ast.walk(tree)
                  if _functools_cache(n) and id(n) not in exempt]
        bodies = [tree.body] + [top.body for top in tree.body if isinstance(top, ast.ClassDef)]
        for stmt in (s for body in bodies for s in body):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
            for target in targets:
                name = getattr(target, "id", "")
                if stmt.value is not None and _mutable(stmt.value) and name not in MODULE_STATE:
                    found.append(f"{path.name}:{stmt.lineno} module or class state {name}")
    assert found == []
