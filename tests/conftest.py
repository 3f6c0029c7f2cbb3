import sys
from pathlib import Path

import numpy as np
import pytest

import fusionframes.cli

sys.path.insert(0, str(Path(__file__).resolve().parent))


@pytest.fixture(autouse=True)
def fresh_parse():
    """Start every test without the document that ``parse_document`` kept from an earlier test."""
    fusionframes.cli._last_parse = None


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
