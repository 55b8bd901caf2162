"""Shared test setup.

The CLI tests start ``python -m stresstruss`` in a child process; give it
the source tree that pytest's ``pythonpath`` setting gives this one.
Property tests draw the same examples on every run (``derandomize``, which
also turns the example database off), so a tier-1 result is reproducible.
"""

import os
from pathlib import Path

import pytest
from hypothesis import settings

from stresstruss import artifacts, pipeline
from stresstruss.config import parse_config
from stresstruss.mesh import feature_edges
from stresstruss.pipeline import mesh_from_config, run_stage

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture(autouse=True)
def no_kept_mesh():
    """Each test starts with no mesh kept by ``run_stage``, so that a mesh
    builder it patches is the one its stages call."""
    pipeline._kept.clear()


@pytest.fixture(scope="session", params=[0.0, 0.110])
def bar_frames(request, tmp_path_factory):
    """The bending bar's short frame fit, as the pipeline writes it: (config,
    output directory holding its fea and frames artifacts)."""
    doc = {
        "mesh": {"fixture": "bar", "jitter": request.param},
        "material": {"young_modulus": 2.3e9, "poisson_ratio": 0.3,
                     "yield_strength": 4.8e7},
        "boundary_conditions": {
            "dirichlet": [{"selector": {"type": "box",
                                        "min": [-1e-9, -1.0, -1.0],
                                        "max": [1e-9, 1.0, 1.0]}}],
            "neumann": [{"selector": {"type": "box",
                                      "min": [0.1999999, -1.0, -1.0],
                                      "max": [0.2000001, 1.0, 1.0]},
                         "force": [0.0, -100.0, 0.0]}],
        },
        "rho": 10.0,
        "frame_fit": {"outer_iterations": 3},
    }
    cfg = parse_config(doc)
    out = tmp_path_factory.mktemp("bar_field")
    for stage in ("fea", "frames"):
        run_stage(stage, cfg, out_dir=out)
    return cfg, out


@pytest.fixture(scope="session")
def bar_field(bar_frames):
    """A short-fit bending-bar parametrization, as the pipeline writes it:
    (mesh, perturbed phi_tilde, feature edges)."""
    cfg, out = bar_frames
    run_stage("param", cfg, out_dir=out)
    _, arr = artifacts.read_field(out / "param.field", kind="param")
    mesh = mesh_from_config(cfg)
    return (mesh, arr["phi_tilde"],
            feature_edges(mesh.boundary, cfg.features.cos_threshold))
