import json

from identity import MANIFEST, mismatches, run_matrix


def test_outputs_match_the_identity_manifest(bundle, tmp_path):
    """Every run of the matrix in ``identity.py`` writes the bytes the
    manifest records; a change that alters outputs on purpose regenerates
    it with ``PYTHONPATH=src python tests/identity.py``."""
    expected = json.loads(MANIFEST.read_text(encoding="utf-8"))
    differ = mismatches(expected, run_matrix(tmp_path, bundle))
    assert not differ, "runs that differ:\n" + "\n".join(differ)
