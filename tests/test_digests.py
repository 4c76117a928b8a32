"""The bit-identity gate: every pinned output matches its committed sha256
digest.  See ``digests.py`` for what is pinned and how to regenerate the
table after a change that moves bits on purpose."""

import json

from digests import TABLE, compute


def test_outputs_match_the_committed_digests():
    table = json.loads(TABLE.read_text())
    now = compute()
    assert now.keys() == table.keys()
    assert sorted(k for k in table if now[k] != table[k]) == []
