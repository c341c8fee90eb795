"""Access to the JSON files shipped with the package."""

from __future__ import annotations

import json
from importlib import resources


def load_data(name: str) -> dict:
    """Parse ``tessella/data/<name>`` (a JSON file)."""
    return json.loads(resources.files("tessella.data").joinpath(name).read_text())

