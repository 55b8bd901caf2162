"""Staged artifact files.

Graphs are JSON (nodes with positions/params/tags, elements with family
tags); field data is a one-line JSON header followed by flat little-endian
arrays. Writers must be byte-deterministic: floats take the json module's
repr-based form and arrays are written C-ordered.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np

from .errors import ArtifactError
from .extract import TAG_RANK, TrussGraph

GRAPH_VERSION = 1
FIELD_VERSION = 1
MANIFEST_NAME = "manifest.json"


def _json_list(items: list[str], indent: str) -> str:
    """A list of encoded items, laid out as ``json.dumps(..., indent=1)``
    lays it out at ``indent``."""
    if not items:
        return "[]"
    sep = ",\n" + indent + " "
    return "[" + sep[1:] + sep.join(items) + "\n" + indent + "]"


_JSON_SPECIAL = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_floats(a: np.ndarray) -> list[list[str]]:
    """Rows of floats encoded as the json module encodes them."""
    if np.isfinite(a).all():
        return [[repr(x) for x in row] for row in a.tolist()]
    return [[_JSON_SPECIAL.get(repr(x), repr(x)) for x in row]
            for row in a.tolist()]


def write_graph(path: str | Path, g: TrussGraph):
    """The bytes of ``json.dumps(doc, indent=1, sort_keys=True)`` plus a
    newline, built row by row (the json module's indenting encoder is pure
    Python and several times slower)."""
    tags = {t: json.dumps(t) for t in set(g.tags)}
    families = {f: json.dumps(f) for f in set(g.families)}
    nodes = [
        f'{{\n   "params": {_json_list(par, "   ")},\n   "position": '
        f'{_json_list(pos, "   ")},\n   "tag": {tags[tag]}\n  }}'
        for pos, par, tag in zip(_json_floats(g.positions),
                                 _json_floats(g.params), g.tags)
    ]
    elements = [
        f'{{\n   "family": {families[fam]},\n   "nodes": [\n    {a},\n'
        f'    {b}\n   ]\n  }}'
        for (a, b), fam in zip(g.elements.tolist(), g.families)
    ]
    Path(path).write_text(
        f'{{\n "elements": {_json_list(elements, " ")},\n "nodes": '
        f'{_json_list(nodes, " ")},\n "type": "truss_graph",\n "version": '
        f'{GRAPH_VERSION}\n}}\n')


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


def read_graph(path: str | Path) -> TrussGraph:
    path = Path(path)
    if not path.exists():
        raise ArtifactError(f"graph artifact does not exist: {path}")
    doc = _json_object(path.read_bytes(), path, "graph artifact")
    if doc.get("type") != "truss_graph":
        raise ArtifactError(f"{path} is not a truss graph artifact")
    if doc.get("version") != GRAPH_VERSION:
        raise ArtifactError(f"unsupported graph version in {path}: "
                            f"{doc.get('version')!r}")
    try:
        nodes = doc["nodes"]
        elements = doc["elements"]
        n = len(nodes)
        width = len(nodes[0]["params"]) if n else 3
        positions = np.array([nd["position"] for nd in nodes],
                             dtype=float).reshape(n, 3)
        params = np.array([nd["params"] for nd in nodes],
                          dtype=float).reshape(n, width)
        tags = [str(nd["tag"]) for nd in nodes]
        elems = np.array([e["nodes"] for e in elements])
        # No string, null or fraction passes as a node index.
        if elems.size and elems.dtype.kind not in "iu":
            raise ValueError("element node indices must be integers")
        elems = elems.astype(np.int64).reshape(len(elements), 2)
        families = [str(e["family"]) for e in elements]
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(
            f"malformed graph artifact {path}: {exc!r}") from exc
    unknown = set(tags) - TAG_RANK.keys()
    if unknown:
        raise ArtifactError(f"unknown node tag(s) {sorted(unknown)} in {path}")
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


def read_field(path: str | Path,
               kind: str | None = None) -> tuple[dict, dict[str, np.ndarray]]:
    path = Path(path)
    if not path.exists():
        raise ArtifactError(f"field artifact does not exist: {path}")
    with open(path, "rb") as fh:
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
                arrays[entry["name"]] = np.frombuffer(
                    fh.read(size), dtype=dt).reshape(shape).copy()
        except (KeyError, TypeError, ValueError) as exc:
            raise ArtifactError(
                f"malformed field artifact {path}: {exc!r}") from exc
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
    if not path.exists():
        raise ArtifactError(f"manifest does not exist: {path}")
    return _json_object(path.read_bytes(), path, "manifest")
