"""The field screens every public entry point reads its scalar inputs through, and the
read-only value records the layers return."""

import copy
import math
import pickle
import sys

import numpy as np
import pytest

from conetorsion.basemanifold import circle
from conetorsion.besselzero import ZeroRequest, zeros
from conetorsion.derivation import SpectralParameter
from conetorsion.errors import ValidationError, flag, integer, number, positive, text
from conetorsion.modelops import ConeOverS1Config, DeterminantValue, ModelOperator
from conetorsion.torsion import DegreeContinuation, TorsionBreakdown
from conetorsion.zetadata import ZetaFunctionData

_NUMERIC = [number, positive, integer]


@pytest.mark.parametrize("screen", _NUMERIC, ids=lambda f: f.__name__)
@pytest.mark.parametrize("bad", [True, np.True_, "2", None, math.nan, math.inf, -math.inf,
                                 10 ** 400, -10 ** 400],
                         ids=["true", "np-true", "str", "none", "nan", "inf", "-inf",
                              "huge", "-huge"])
def test_numeric_screens_refuse_naming_the_field(screen, bad):
    with pytest.raises(ValidationError) as info:
        screen(bad, "field x")
    assert str(info.value).startswith("field x must be ")
    assert str(info.value).endswith(f", got {bad!r}")


@pytest.mark.parametrize("screen", _NUMERIC, ids=lambda f: f.__name__)
@pytest.mark.parametrize("good", [np.int64(3), 3, 2 ** 80])
def test_numeric_screens_accept_integers_as_python_numbers(screen, good):
    value = screen(good, "field x")
    assert value == good and type(value) is (int if screen is integer else float)


@pytest.mark.parametrize("screen", [number, positive], ids=lambda f: f.__name__)
def test_number_screens_accept_numpy_floats_as_floats(screen):
    value = screen(np.float64(2.5), "field x")
    assert value == 2.5 and type(value) is float
    with pytest.raises(ValidationError, match=r"^field x must be a finite number > 0, got -2\.5$"):
        positive(-2.5, "field x")


def test_integer_screen_keeps_its_bounds_and_refuses_floats():
    assert integer(12, "order", 1, 12) == 12
    for bad, rule in ((13, "an integer in 1..12"), (0, "an integer in 1..12"),
                      (2.0, "an integer in 1..12"), (np.float64(3.0), "an integer in 1..12")):
        with pytest.raises(ValidationError, match=f"^order must be {rule}, got "):
            integer(bad, "order", 1, 12)
    assert integer(-5, "degree", -math.inf, rule="an integer") == -5
    with pytest.raises(ValidationError, match="^count must be an integer >= 100, got 99$"):
        integer(99, "count", 100)


def test_number_rule_sees_an_int_beyond_binary64_as_nan():
    # only a rule that admits nan lets it through; the default refuses it
    assert math.isnan(number(10 ** 400, "nu", "a real number", lambda x: True))
    with pytest.raises(ValidationError, match="^alpha must be a finite number or inf, got 1000"):
        number(10 ** 400, "alpha", "a finite number or inf", lambda x: -math.inf < x <= math.inf)
    assert number(math.inf, "alpha", "a finite number or inf",
                  lambda x: -math.inf < x <= math.inf) == math.inf


@pytest.mark.parametrize("good", [True, False, np.True_, np.False_])
def test_flag_accepts_bools_as_bools(good):
    value = flag(good, "allow_boundary")
    assert value == bool(good) and type(value) is bool


@pytest.mark.parametrize("bad", ["no", 1, 0, None, 1.0, np.int64(1)])
def test_flag_refuses_what_merely_converts(bad):
    with pytest.raises(ValidationError) as info:
        flag(bad, "allow_boundary")
    assert str(info.value) == f"allow_boundary must be a bool, got {bad!r}"


def test_flag_needs_no_numpy(monkeypatch):
    # flag reads numpy's bool type from sys.modules: without numpy loaded,
    # plain bools still pass and everything else is still refused
    monkeypatch.delitem(sys.modules, "numpy")
    assert flag(True, "allow_boundary") is True
    with pytest.raises(ValidationError, match=r"^allow_boundary must be a bool, got 1$"):
        flag(1, "allow_boundary")


@pytest.mark.parametrize("bad", [None, 3, ["a"], b"x", True])
def test_text_refuses_non_strings(bad):
    with pytest.raises(ValidationError, match="^name must be a string, got "):
        text(bad, "name")
    assert text("", "name") == "" and text("x", "name") == "x"


# ---------------------------------------------------------------------------
# value records: the read-only records the layers return are values

def test_records_compare_hash_print_and_copy_by_field():
    req = ZeroRequest(2.5, "mixed", np.int64(5), alpha=1.0)
    same = ZeroRequest(nu=2.5, kind="mixed", count=5, alpha=1.0)
    assert req == same and hash(req) == hash(same)
    assert req != ZeroRequest(2.5, "mixed", 5, alpha=0.5)
    assert repr(req) == str(req) == "ZeroRequest(nu=2.5, kind='mixed', count=5, alpha=1.0)"
    assert list(req.as_dict().items()) == [("nu", 2.5), ("kind", "mixed"), ("count", 5),
                                           ("alpha", 1.0)]
    for twin in (copy.copy(req), copy.deepcopy(req), pickle.loads(pickle.dumps(req))):
        assert twin == req and twin is not req
    # a record equals only a record of its own class
    assert ConeOverS1Config(2.0, 2.0) != ModelOperator(2.0, 2.0)
    assert ModelOperator(2.0) == ModelOperator(2, math.inf)
    # the arrays stay out of a zero list's repr
    zl = zeros(ZeroRequest(2.0, "dirichlet", 3))
    assert repr(zl) == "ZeroList(request=ZeroRequest(nu=2.0, kind='dirichlet', count=3, alpha=None))"


def test_records_keep_their_defaults_and_refuse_writes():
    data = ZetaFunctionData(1.5)
    assert list(data.as_dict()) == ["deriv0", "deriv0_shifted", "residues", "pp",
                                    "error_estimate", "zeta0", "pp_errors"]
    assert (dict(data.deriv0_shifted), dict(data.residues), dict(data.pp),
            dict(data.pp_errors)) == ({}, {}, {}, {})
    assert data.error_estimate == 0.0 and math.isnan(data.zeta0)
    assert ConeOverS1Config().as_dict() == {"radius": 1.0, "nu_angle": 1.0}
    assert ModelOperator(2.0).alpha == math.inf
    assert DeterminantValue(0.5, "closed-form").error_estimate == 0.0
    breakdown = TorsionBreakdown(0.1, 0.2, {}, "odd", "s1", 2.0)
    assert breakdown.error_estimate == 0.0
    dc = DegreeContinuation(0, "exact", data, {0.0: 0.0})
    assert dc.progression is None and dc.nu_stream is None
    for record in (data, ConeOverS1Config(), ModelOperator(2.0), breakdown, dc,
                   SpectralParameter(-1.0), ZeroRequest(2.0, "dirichlet", 3)):
        name = type(record).__name__
        with pytest.raises(AttributeError, match=f"^{name} is read-only$"):
            setattr(record, next(iter(record.as_dict())), 0.0)
        with pytest.raises(AttributeError, match=f"^{name} is read-only$"):
            delattr(record, next(iter(record.as_dict())))
    with pytest.raises(TypeError):
        data.pp[1] = 0.0


def test_bases_stay_equal_and_hashed_by_identity():
    # a base keys the weak per-degree cache: two equal-looking bases are two keys
    first, second = circle(2.0), circle(2.0)
    assert first != second and first == first
    assert hash(first) == object.__hash__(first)
