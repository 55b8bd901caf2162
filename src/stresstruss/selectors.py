"""Boundary-condition selectors: validated once when the config is parsed,
then matched against mesh vertices, boundary triangles or truss nodes.

A selector is a JSON object with a ``type`` from KEYS and exactly that
type's keys. Matches are sorted, unique ids, so a repeated index counts
once.
"""

from __future__ import annotations

import numbers
import sys

import numpy as np

from .errors import ConfigError


def is_number(x) -> bool:
    """A finite real number that is not a bool (a huge int is not finite)."""
    return (isinstance(x, numbers.Real) and not isinstance(x, bool)
            and abs(x) <= sys.float_info.max)


def is_point(v) -> bool:
    """A list or tuple of 3 finite numbers."""
    return (isinstance(v, (list, tuple)) and len(v) == 3
            and all(map(is_number, v)))


def _is_index_list(v) -> bool:
    return isinstance(v, (list, tuple)) and all(
        isinstance(i, numbers.Integral) and not isinstance(i, bool)
        for i in v)


POINT = (is_point, "3 finite numbers")
NON_NEGATIVE = (lambda v: is_number(v) and v >= 0, "a finite number >= 0")
# Each type's keys, with a test of a valid value and what the test asks.
KEYS = {
    "box": {"min": POINT, "max": POINT},
    "sphere": {"center": POINT,
               "radius": NON_NEGATIVE},
    "indices": {"values": (_is_index_list, "a flat list of integers")},
}


def check(sel, where: str):
    """Raise ConfigError, prefixed ``where:``, unless ``sel`` is a valid
    selector."""
    def require(cond: bool, msg: str):
        if not cond:
            raise ConfigError(f"{where}: {msg}")

    require(isinstance(sel, dict), "selector must be an object")
    kind = sel.get("type")
    require(isinstance(kind, str) and kind in KEYS,
            f"unknown selector type {kind!r}")
    keys = set(sel) - {"type"}
    require(keys == set(KEYS[kind]),
            f"{kind} selector needs exactly the keys {list(KEYS[kind])}, "
            f"got {sorted(keys)}")
    for key, (valid, what) in KEYS[kind].items():
        require(valid(sel[key]), f"{kind} selector {key} must be {what}")


def select(points: np.ndarray, sel: dict) -> np.ndarray:
    """Ids of the points (n, 3) the selector matches; ``indices`` must lie
    in [0, n), checked as Python ints so that a huge one cannot overflow."""
    kind = sel.get("type")
    if kind == "box":
        lo = np.asarray(sel["min"], dtype=float)
        hi = np.asarray(sel["max"], dtype=float)
        return np.nonzero(((points >= lo) & (points <= hi)).all(axis=1))[0]
    if kind == "sphere":
        c = np.asarray(sel["center"], dtype=float)
        dist = np.linalg.norm(points - c, axis=1)
        return np.nonzero(dist <= float(sel["radius"]))[0]
    if kind == "indices":
        if not all(0 <= i < len(points) for i in sel["values"]):
            raise ConfigError(
                f"index selector out of range: {len(points)} entries")
        return np.unique(np.asarray(sel["values"], dtype=np.int64))
    raise ConfigError(f"unknown selector type {kind!r}")


def select_faces(points: np.ndarray, triangles: np.ndarray,
                 sel: dict) -> np.ndarray:
    """Ids of the triangles whose three vertices all match the selector;
    an ``indices`` selector names triangles directly."""
    if sel.get("type") == "indices":
        return select(triangles, sel)
    mask = np.zeros(len(points), dtype=bool)
    mask[select(points, sel)] = True
    return np.nonzero(mask[triangles].all(axis=1))[0]


def center(sel: dict) -> np.ndarray:
    """Center of a box or sphere selector."""
    kind = sel.get("type")
    if kind == "box":
        return 0.5 * (np.asarray(sel["min"], dtype=float)
                      + np.asarray(sel["max"], dtype=float))
    if kind == "sphere":
        return np.asarray(sel["center"], dtype=float)
    raise ConfigError(f"selector type {kind!r} has no geometric center")
