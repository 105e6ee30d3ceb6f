"""The committed corpus files are what scripts/gen_fixtures.py generates.

Every oracle test reads these 996 graphs, so they are rebuilt here from
the networkx atlas, each line cross-checked by the script, and compared
byte for byte with the package data.
"""

from __future__ import annotations

import importlib.util
from importlib import resources
from pathlib import Path

import pytest

pytest.importorskip("networkx")

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "gen_fixtures.py"


def test_committed_corpus_is_regenerated_byte_for_byte():
    spec = importlib.util.spec_from_file_location("gen_fixtures", _PATH)
    gen_fixtures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen_fixtures)
    texts = gen_fixtures.corpus_texts()
    data = resources.files("symbreak") / "data"
    assert sorted(texts) == sorted(
        f.name for f in data.iterdir() if f.name.endswith(".g6"))
    for name, text in texts.items():
        assert (data / name).read_bytes() == text.encode("ascii"), name
