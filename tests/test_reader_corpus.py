"""Every case of the seeded reader corpus (``reader_corpus``) reads as it did
when ``tests/data/goldens/reader_corpus.json`` was written: the same error,
message, path and field, or the same written JSON and stored tensors."""

import json

from reader_corpus import GOLDEN, run


def test_reader_corpus_matches_golden():
    expected = json.loads(GOLDEN.read_text())
    got = run()
    assert sorted(got) == sorted(expected)
    changed = {key: {"was": expected[key], "now": got[key]}
               for key in expected if got[key] != expected[key]}
    assert not changed, json.dumps(dict(list(changed.items())[:5]), indent=1)
