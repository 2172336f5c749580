"""Every golden run writes the bytes its manifest records.

The manifest is rewritten only by tests/golden/regen.py; see its docstring.
"""

import json

import pytest

from golden.regen import MANIFEST, RUNS, environment, file_hashes

_MANIFEST = json.loads(MANIFEST.read_text())


def test_manifest_lists_every_run():
    assert sorted(_MANIFEST) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_outputs_match_the_manifest(tmp_path, name):
    recorded = _MANIFEST[name]
    here = environment()
    made_on = {key: recorded[key] for key in here}
    if made_on != here:
        pytest.skip(f"byte check needs {made_on}, this is {here}")
    assert file_hashes(name, tmp_path) == recorded["files"]
