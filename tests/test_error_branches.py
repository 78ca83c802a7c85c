"""Error branches of the boundary checks: each raises its documented
error with its own message."""

import pytest

import kstieltjes as ks
from kstieltjes import Interval, PiecewiseFunction, SequenceFamily
from kstieltjes import convergence, funcspec_io, piecewise
from kstieltjes.cli import main, parse_set_expression
from kstieltjes.errors import FunctionSpecError, SetExpressionError


def test_set_expression_needs_an_opening_bracket():
    with pytest.raises(SetExpressionError, match=r"expected '\[' or '\('"):
        parse_set_expression("0.5, 1]")


def test_ns_needs_a_value(capsys):
    assert main(["converge", "F.json", "--family", "power", "--ns", ",",
                 "--threshold", "1"]) == 2
    assert "need at least one n" in capsys.readouterr().err


@pytest.mark.parametrize("domain, message", [
    (Interval(0.0, 1.0, True, False), "compact intervals"),
    ((1.0, 1.0), "a < b"),
    ((2.0, 1.0), "a < b")])
def test_domain_pair(domain, message):
    with pytest.raises(ValueError, match=message):
        ks.polynomial(domain, [1.0])


@pytest.mark.parametrize("grid, nodes, message", [
    ([0.0], [[0.0]], "at least the two domain endpoints"),
    ([[0.0, 1.0]], [[0.0]], "at least the two domain endpoints"),
    ([0.0, 1.0, 1.0], [[0.0]] * 3, "strictly increasing"),
    ([0.0, 1.0], [[0.0]] * 3, "one node value per grid point")])
def test_constructor(grid, nodes, message):
    with pytest.raises(ValueError, match=message):
        PiecewiseFunction(grid, [[[1.0]]] * 2, nodes)


@pytest.mark.parametrize("f, message", [
    (ks.polynomial((0.0, 1.0), [0.0, 1.0]), "a piece is non-constant"),
    (ks.constant((0.0, 1.0), 1.0), "value at the left endpoint is nonzero")])
def test_require_break_function(f, message):
    with pytest.raises(ValueError, match=message):
        piecewise._require_break_function(f)


def test_members_unknown_kind():
    family = SequenceFamily.power()
    odd = SequenceFamily(**{**family.__dict__, "kind": "odd"})
    with pytest.raises(ValueError, match="unknown family kind 'odd'"):
        convergence._members(odd, [1])


def test_spec_reraises_constructor_errors(monkeypatch):
    """The loader's own checks run first, so no valid-looking document
    reaches a constructor error; a stand-in constructor raises one."""
    def refuse(grid, coeffs, nodes):
        raise ValueError("refused")

    monkeypatch.setattr(funcspec_io, "PiecewiseFunction", refuse)
    doc = {"domain": [0.0, 1.0], "codomain": {"kind": "vector", "dim": 1},
           "pieces": [{"interval": [0.0, 1.0], "coeffs": [[1.0]]}]}
    with pytest.raises(FunctionSpecError, match="refused"):
        funcspec_io.function_from_dict(doc)
