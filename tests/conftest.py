"""Checks that hold for every test of the suite."""

import json

import pytest


@pytest.fixture(autouse=True)
def manifests_keep_their_format(request):
    """Every manifest.json that a test leaves under its tmp_path is json's
    own indent-2, sorted-key text with a final newline."""
    yield
    tmp_path = request.node.funcargs.get("tmp_path")
    for path in tmp_path.rglob("manifest.json") if tmp_path is not None else ():
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", path
