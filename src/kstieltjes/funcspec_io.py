"""Reading and writing function specification files.

A function spec is a JSON document describing a piecewise-polynomial
function:

.. code-block:: json

    {
      "domain": [0.0, 1.0],
      "codomain": {"kind": "vector", "dim": 1},
      "pieces": [
        {"interval": [0.0, 0.5], "coeffs": [[0.0]]},
        {"interval": [0.5, 1.0], "coeffs": [[1.0]]}
      ],
      "nodes": [{"t": 0.5, "value": [1.0]}]
    }

``coeffs`` is indexed ``[component][power]`` for vector functions and
``[row][column][power]`` for operator functions.  Piece intervals must
tile the domain; every ``nodes`` entry must sit on a piece boundary.
Every number must be a finite JSON number: ``json`` accepts ``NaN`` and
``Infinity`` tokens, and the loader rejects them, as it rejects strings
and booleans, in the domain, the piece intervals, the coefficients, the
node times and the node values.  ``dim`` must be an integer of at
least 1 (an integral float such as ``2.0`` counts).
Grid points without an explicit node default to continuity (the value of
the polynomial to the right; to the left at ``b``).  Numbers are decimal
text parsed once into IEEE doubles, and serialisation uses shortest
round-trip formatting, so load/save/load is the identity.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import _poly
from .errors import FunctionSpecError
from .piecewise import PiecewiseFunction


def _require(condition: bool, message: str):
    if not condition:
        raise FunctionSpecError(message)


def _finite(value, what: str, shape=None) -> np.ndarray:
    """``value`` as an array of finite floats, of ``shape`` when given.
    Strings and booleans are refused even where they would convert."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FunctionSpecError(f"{what} must be numeric") from exc
    # checked leaf by leaf: np.asarray([True, 1]) is an integer array
    _require(not any(isinstance(x, (str, bool, np.bool_))
                     for x in np.asarray(value, dtype=object).flat),
             f"{what} must be numeric, not a string or a boolean")
    _require(shape is None or arr.shape == shape,
             f"{what} must have shape {shape}, got {arr.shape}")
    _require(np.isfinite(arr).all(), f"{what} must be finite")
    return arr


def _dimension(value) -> int:
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    _require(isinstance(value, int) and not isinstance(value, bool) and value >= 1,
             f"'dim' must be an integer of at least 1, got {value!r}")
    return value


def function_from_dict(doc: dict) -> PiecewiseFunction:
    _require(isinstance(doc, dict), "top level must be a JSON object")
    for key in ("domain", "codomain", "pieces"):
        _require(key in doc, f"missing required key {key!r}")
    a, b = _finite(doc["domain"], "'domain'", (2,)).tolist()
    _require(a < b, "'domain' must satisfy a < b")

    codomain = doc["codomain"]
    _require(isinstance(codomain, dict) and "kind" in codomain and "dim" in codomain,
             "'codomain' must carry 'kind' and 'dim'")
    kind = codomain["kind"]
    _require(kind in ("vector", "operator"), f"unknown codomain kind {kind!r}")
    dim = _dimension(codomain["dim"])
    vshape = (dim,) if kind == "vector" else (dim, dim)

    pieces = doc["pieces"]
    _require(isinstance(pieces, list) and pieces, "'pieces' must be a nonempty list")
    grid = [a]
    coeffs = []
    for idx, piece in enumerate(pieces):
        _require(isinstance(piece, dict) and "interval" in piece and "coeffs" in piece,
                 f"piece {idx} needs 'interval' and 'coeffs'")
        lo, hi = _finite(piece["interval"], f"piece {idx}: interval", (2,)).tolist()
        _require(lo == grid[-1],
                 f"piece {idx} starts at {lo}, expected {grid[-1]} (pieces must tile the domain)")
        _require(hi > lo, f"piece {idx} has nonpositive width")
        grid.append(hi)
        raw = _finite(piece["coeffs"], f"piece {idx}: coeffs")
        _require(raw.ndim == len(vshape) + 1 and raw.shape[:len(vshape)] == vshape,
                 f"piece {idx}: coeffs shape {raw.shape} does not match "
                 f"{kind} of dimension {dim}")
        coeffs.append(np.moveaxis(raw, -1, 0))  # [..., power] -> [power, ...]
    _require(grid[-1] == b, f"pieces end at {grid[-1]}, expected {b}")

    # default nodes: continuity against the right piece (left piece at b)
    nodes = np.empty((len(grid),) + vshape)
    for k, t in enumerate(grid):
        ref = coeffs[k] if k < len(coeffs) else coeffs[-1]
        nodes[k] = _poly.polyval(ref, t)
    position = {t: k for k, t in enumerate(grid)}
    entries = doc.get("nodes", [])
    _require(isinstance(entries, list), "'nodes' must be a list")
    for idx, entry in enumerate(entries):
        _require(isinstance(entry, dict) and "t" in entry and "value" in entry,
                 f"node {idx} needs 't' and 'value'")
        t = float(_finite(entry["t"], f"node {idx}: t", ()))
        _require(t in position,
                 f"node {idx}: t={t} is not a grid point of the pieces")
        nodes[position[t]] = _finite(entry["value"], f"node {idx}: value", vshape)
    try:
        return PiecewiseFunction(grid, coeffs, nodes)
    except ValueError as exc:
        raise FunctionSpecError(str(exc)) from exc


def digest(path) -> str:
    """Short content digest of a spec file, echoed into run reports."""
    import hashlib

    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]


def function_to_dict(f: PiecewiseFunction) -> dict:
    pieces = []
    for u, v, c in f.piece_spans():
        pieces.append({"interval": [u, v],
                       "coeffs": np.moveaxis(c, 0, -1).tolist()})
    nodes = [{"t": float(t), "value": f.nodes[k].tolist()}
             for k, t in enumerate(f.grid)]
    return {"domain": [f.a, f.b],
            "codomain": {"kind": f.kind, "dim": f.dim},
            "pieces": pieces,
            "nodes": nodes}


def load_function(path) -> PiecewiseFunction:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise FunctionSpecError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FunctionSpecError(f"{path}: invalid JSON ({exc})") from exc
    return function_from_dict(doc)


def save_function(f: PiecewiseFunction, path):
    Path(path).write_text(json.dumps(function_to_dict(f), indent=2) + "\n",
                          encoding="utf-8")
