"""Package metadata: one version number."""

from __future__ import annotations

from pathlib import Path

import pytest

import cvswap

tomllib = pytest.importorskip("tomllib")


def test_version_matches_pyproject():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == cvswap.__version__
