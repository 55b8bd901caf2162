"""Staged artifact files.

A graph is one line of JSON holding the truss graph's fields, arrays as
nested lists; field data is a one-line JSON header followed by flat
little-endian arrays. Writers must be byte-deterministic: floats take the
json module's repr-based form and arrays are written C-ordered.
"""

from __future__ import annotations

import json
import math
import os
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import ArtifactError
from .extract import FAMILIES, TAG_RANK, TrussGraph

GRAPH_VERSION = 2
FIELD_VERSION = 1
MANIFEST_NAME = "manifest.json"


def write_graph(path: str | Path, g: TrussGraph):
    """The graph's fields as one line of JSON, arrays as nested lists."""
    doc = {"type": "truss_graph", "version": GRAPH_VERSION,
           "positions": g.positions.tolist(), "params": g.params.tolist(),
           "tags": g.tags, "elements": g.elements.tolist(),
           "families": g.families}
    Path(path).write_text(
        json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def _open(path: Path, what: str):
    """``path`` opened for binary reading; ArtifactError naming it if it
    is absent or cannot be read, as when it is a directory."""
    try:
        return open(path, "rb")
    except FileNotFoundError as exc:
        raise ArtifactError(f"{what} does not exist: {path}") from exc
    except OSError as exc:
        raise ArtifactError(f"cannot read {what} {path}: {exc.strerror}") \
            from exc


def _json_object(data: bytes, path: Path, what: str) -> dict:
    """The JSON object ``data`` holds; ArtifactError naming ``path`` if it
    holds anything else."""
    try:
        doc = json.loads(data)
    except ValueError as exc:      # undecodable bytes or malformed JSON
        raise ArtifactError(f"corrupt {what} {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ArtifactError(f"corrupt {what} {path}: not a JSON object")
    return doc


# The Python types a graph's numeric columns may hold: a JSON true, false
# or null is no number.
_NUMBERS = {float, int}


def _column(doc: dict, key: str, types: set, dtype=None, width: int = 0):
    """The JSON list ``doc[key]``, each value of a type in ``types``: as
    it is, or given a ``dtype`` as the array of its rows ``width`` long."""
    col = doc[key]
    if not isinstance(col, list):
        raise ValueError(f"{key} is not a list")
    found = set(map(type, chain.from_iterable(col) if dtype else col))
    if not found <= types:
        raise ValueError(f"{key} holds "
                         f"{sorted(t.__name__ for t in found - types)}")
    if dtype is None:
        return col
    return np.array(col, dtype=dtype).reshape(len(col), width)


def read_graph(path: str | Path) -> TrussGraph:
    path = Path(path)
    with _open(path, "graph artifact") as fh:
        doc = _json_object(fh.read(), path, "graph artifact")
    if doc.get("type") != "truss_graph":
        raise ArtifactError(f"{path} is not a truss graph artifact")
    if doc.get("version") != GRAPH_VERSION:
        raise ArtifactError(f"unsupported graph version in {path}: "
                            f"{doc.get('version')!r}")
    try:
        positions = _column(doc, "positions", _NUMBERS, float, 3)
        params = _column(doc, "params", _NUMBERS, float,
                         len(doc["params"][0]) if doc["params"] else 3)
        tags = _column(doc, "tags", {str})
        elems = _column(doc, "elements", {int}, np.int64, 2)
        families = _column(doc, "families", {str})
        if not (np.isfinite(positions).all() and np.isfinite(params).all()):
            raise ValueError("positions or params hold a non-finite number")
        n = len(positions)
        if len(params) != n or len(tags) != n or len(families) != len(elems):
            raise ValueError("columns of unequal length")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ArtifactError(
            f"malformed graph artifact {path}: {exc!r}") from exc
    for what, names, known in (("node tag(s)", tags, TAG_RANK),
                               ("element family(ies)", families, FAMILIES)):
        unknown = set(names).difference(known)
        if unknown:
            raise ArtifactError(f"unknown {what} {sorted(unknown)} in {path}")
    if elems.size and (elems.min() < 0 or elems.max() >= n):
        raise ArtifactError(
            f"element node index out of range [0, {n}) in {path}")
    return TrussGraph(positions=positions, params=params, tags=tags,
                      elements=elems, families=families)


def write_field(path: str | Path, arrays: dict[str, np.ndarray],
                meta: dict | None = None, kind: str = "field"):
    """One JSON header line, then each array's raw little-endian bytes in
    header order."""
    entries = []
    blobs = []
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        dt = arr.dtype.newbyteorder("<")
        arr = arr.astype(dt, copy=False)
        entries.append({"name": name, "dtype": dt.str,
                        "shape": list(arr.shape)})
        blobs.append(arr.tobytes(order="C"))
    header = {
        "type": kind,
        "version": FIELD_VERSION,
        "arrays": entries,
        "meta": meta or {},
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True,
                            separators=(",", ":")).encode())
        fh.write(b"\n")
        for blob in blobs:
            fh.write(blob)


def read_field(path: str | Path, kind: str | None = None,
               names: tuple[str, ...] = ()
               ) -> tuple[dict, dict[str, np.ndarray]]:
    """The meta and arrays of a field artifact; ArtifactError if it lacks
    any of the arrays ``names``."""
    path = Path(path)
    with _open(path, "field artifact") as fh:
        line = fh.readline()
        header = _json_object(line, path, "field artifact")
        if kind is not None and header.get("type") != kind:
            raise ArtifactError(
                f"{path} holds {header.get('type')!r}, expected {kind!r}")
        if header.get("version") != FIELD_VERSION:
            raise ArtifactError(f"unsupported field version in {path}: "
                                f"{header.get('version')!r}")
        left = os.fstat(fh.fileno()).st_size - len(line)
        arrays = {}
        try:
            for entry in header["arrays"]:
                dt = np.dtype(entry["dtype"])
                shape = entry["shape"]
                if dt.kind not in "biufc" or not all(
                        isinstance(k, int) and k >= 0 for k in shape):
                    raise ValueError(f"bad dtype or shape in {entry!r}")
                # Sized by the header only once the file holds the bytes.
                size = math.prod(shape) * dt.itemsize
                if size > left:
                    raise ArtifactError(f"truncated field artifact {path}")
                left -= size
                arr = np.frombuffer(fh.read(size), dtype=dt).reshape(shape)
                if not np.isfinite(arr).all():
                    raise ValueError(f"{entry['name']} holds a non-finite number")
                arrays[entry["name"]] = arr.copy()
        except (KeyError, TypeError, ValueError) as exc:
            raise ArtifactError(
                f"malformed field artifact {path}: {exc!r}") from exc
    missing = [name for name in names if name not in arrays]
    if missing:
        raise ArtifactError(f"field artifact {path} lacks {missing}")
    return header.get("meta", {}), arrays


def update_manifest(out_dir: str | Path, cfg_hash: str, stage: str,
                    version: int, files: list[str]):
    """Record a completed stage; the manifest carries no timestamps so
    identical runs write identical bytes."""
    path = Path(out_dir) / MANIFEST_NAME
    doc = {"config_hash": cfg_hash, "stages": {}}
    if path.exists():
        old = read_manifest(out_dir)
        if old.get("config_hash") == cfg_hash:
            doc = old
    doc["config_hash"] = cfg_hash
    doc.setdefault("stages", {})[stage] = {
        "version": version,
        "artifacts": sorted(files),
    }
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def read_manifest(out_dir: str | Path) -> dict:
    path = Path(out_dir) / MANIFEST_NAME
    with _open(path, "manifest") as fh:
        return _json_object(fh.read(), path, "manifest")
