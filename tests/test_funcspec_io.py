import json

import numpy as np
import pytest

import corpus
from kstieltjes import (FunctionSpecError, function_from_dict,
                        function_to_dict, load_function, save_function)


class TestRoundTrip:
    def test_bit_exact(self, rng, tmp_path):
        for i in range(25):
            kind = "operator" if i % 2 else "vector"
            f = corpus.random_piecewise(rng, kind, int(rng.integers(1, 4)))
            path = tmp_path / f"f{i}.json"
            save_function(f, path)
            g = load_function(path)
            assert np.array_equal(f.grid, g.grid)
            assert np.array_equal(f.nodes, g.nodes)
            assert len(f.coeffs) == len(g.coeffs)
            for a, b in zip(f.coeffs, g.coeffs):
                assert np.array_equal(a, b)
            # serialize -> parse -> serialize is a fixed point
            save_function(g, tmp_path / "again.json")
            assert (tmp_path / "again.json").read_text() == path.read_text()

    def test_default_nodes_are_continuity(self):
        doc = {
            "domain": [0.0, 1.0],
            "codomain": {"kind": "vector", "dim": 1},
            "pieces": [{"interval": [0.0, 0.5], "coeffs": [[0.0, 1.0]]},
                       {"interval": [0.5, 1.0], "coeffs": [[1.0, -1.0]]}],
        }
        f = function_from_dict(doc)
        assert f(0.0)[0] == 0.0
        assert f(0.5)[0] == 0.5  # right piece at 0.5: 1 - 0.5
        assert f(1.0)[0] == 0.0

    def test_explicit_node_overrides(self):
        doc = {
            "domain": [0.0, 1.0],
            "codomain": {"kind": "vector", "dim": 1},
            "pieces": [{"interval": [0.0, 1.0], "coeffs": [[0.0]]}],
            "nodes": [{"t": 0.0, "value": [7.0]}],
        }
        assert function_from_dict(doc)(0.0)[0] == 7.0


class TestValidation:
    def base(self):
        return {
            "domain": [0.0, 1.0],
            "codomain": {"kind": "vector", "dim": 1},
            "pieces": [{"interval": [0.0, 1.0], "coeffs": [[0.0]]}],
        }

    def test_missing_keys(self):
        for key in ("domain", "codomain", "pieces"):
            doc = self.base()
            del doc[key]
            with pytest.raises(FunctionSpecError):
                function_from_dict(doc)

    def test_gap_in_tiling(self):
        doc = self.base()
        doc["pieces"] = [{"interval": [0.0, 0.4], "coeffs": [[0.0]]},
                         {"interval": [0.5, 1.0], "coeffs": [[0.0]]}]
        with pytest.raises(FunctionSpecError):
            function_from_dict(doc)

    def test_wrong_coeff_shape(self):
        doc = self.base()
        doc["codomain"] = {"kind": "vector", "dim": 2}
        with pytest.raises(FunctionSpecError):
            function_from_dict(doc)

    def test_node_off_grid(self):
        doc = self.base()
        doc["nodes"] = [{"t": 0.3, "value": [1.0]}]
        with pytest.raises(FunctionSpecError):
            function_from_dict(doc)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("where", ["domain", "interval", "coeffs", "node"])
    def test_non_finite_numbers(self, where, bad):
        doc = self.base()
        if where == "domain":
            doc["domain"] = [0.0, bad]
        elif where == "interval":
            doc["pieces"] = [{"interval": [0.0, bad], "coeffs": [[0.0]]}]
        elif where == "coeffs":
            doc["pieces"][0]["coeffs"] = [[0.0, bad]]
        else:
            doc["nodes"] = [{"t": 1.0, "value": [bad]}]
        with pytest.raises(FunctionSpecError, match="finite"):
            function_from_dict(doc)

    @pytest.mark.parametrize("path, bad", [
        (("codomain", "dim"), float("nan")),
        (("codomain", "dim"), 1.7),
        (("codomain", "dim"), "1"),
        (("codomain", "dim"), None),
        (("codomain", "dim"), True),
        (("codomain", "dim"), 0),
        (("domain",), [None, 1.0]),
        (("domain",), [0.0, 10**400]),
        (("pieces", 0, "interval"), None),
        (("pieces", 0, "interval"), [0.0, 0.5, 1.0]),
        (("pieces", 0, "coeffs"), [["x"]]),
        (("domain",), ["0", 1]),
        (("domain",), [False, 1.0]),
        (("pieces", 0, "interval"), [0.0, "1"]),
        (("pieces", 0, "coeffs"), [["1"]]),
        (("pieces", 0, "coeffs"), [[True, 1]]),
        (("nodes",), [{"t": "1.0", "value": [1.0]}]),
        (("nodes",), [{"t": 1.0, "value": [True]}]),
        (("nodes",), 5),
        (("nodes",), [{"t": None, "value": [1.0]}]),
    ], ids=lambda v: ".".join(map(str, v)) if isinstance(v, tuple) else repr(v)[:24])
    def test_malformed_scalars(self, path, bad):
        doc = self.base()
        *outer, last = path
        target = doc
        for key in outer:
            target = target[key]
        target[last] = bad
        with pytest.raises(FunctionSpecError):
            function_from_dict(doc)

    def test_integers_beyond_int64(self, tmp_path):
        # json.loads gives Python ints of any size; they are numbers
        big = 10**30
        doc = self.base()
        doc["domain"] = [0, big]
        doc["pieces"] = [{"interval": [0, big], "coeffs": [[big]]}]
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        f = load_function(path)
        assert (f.a, f.b) == (0.0, 1e30) and f(0.5)[0] == 1e30

    def test_integral_float_dim(self):
        doc = self.base()
        doc["codomain"]["dim"] = 1.0
        assert function_from_dict(doc).dim == 1

    def test_non_finite_json_tokens(self, tmp_path):
        # json.loads accepts NaN and Infinity, so the loader must reject them
        path = tmp_path / "nan.json"
        path.write_text('{"domain": [0.0, 1.0], "codomain": {"kind": "vector", "dim": 1},'
                        ' "pieces": [{"interval": [0.0, 1.0], "coeffs": [[NaN]]}]}')
        with pytest.raises(FunctionSpecError, match="finite"):
            load_function(path)

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(FunctionSpecError):
            load_function(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FunctionSpecError):
            load_function(tmp_path / "absent.json")

    def test_operator_layout(self):
        doc = {
            "domain": [0.0, 1.0],
            "codomain": {"kind": "operator", "dim": 2},
            "pieces": [{"interval": [0.0, 1.0],
                        "coeffs": [[[1.0], [0.0]], [[0.0], [1.0]]]}],
        }
        f = function_from_dict(doc)
        assert f.kind == "operator"
        assert np.array_equal(f(0.5), np.eye(2))

    def test_to_dict_json_serializable(self, rng):
        f = corpus.random_piecewise(rng, "operator", 2)
        json.dumps(function_to_dict(f))
