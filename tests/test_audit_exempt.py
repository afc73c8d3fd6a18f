"""Every row of ``tools/audit.py``'s reach exemptions names a def that
still exists in ``src/repro`` and gives one of the audit's reasons
(static: no product run)."""

from __future__ import annotations

from tools.audit import EXEMPT, REASONS, SRC, defs_in


def test_every_exempt_row_names_an_existing_def():
    assert EXEMPT, "the exempt table is empty"
    files = {SRC / key.split(":")[0] for key in EXEMPT}
    keys = {key for path in files if path.is_file() for key, *_ in defs_in(path)}
    assert sorted(set(EXEMPT) - keys) == []


def test_every_exempt_row_gives_a_reason():
    assert set(EXEMPT.values()) <= set(REASONS)
