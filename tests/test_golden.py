"""Output bits against the digests pinned in tests/data/golden.json."""

from __future__ import annotations

import json

from tests import golden


def test_output_bits_match_the_golden_digests():
    pinned = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))
    got = golden.digests()
    assert sorted(got) == sorted(pinned)
    changed = sorted(part for part in pinned if got[part] != pinned[part])
    assert changed == [], f"output bits changed in: {', '.join(changed)}"

