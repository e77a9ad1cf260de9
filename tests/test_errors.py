"""The field screens every public entry point reads its scalar inputs through."""

import math
import sys

import numpy as np
import pytest

from conetorsion.errors import ValidationError, flag, integer, number, positive, text

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
