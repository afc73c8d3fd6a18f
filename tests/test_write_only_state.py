"""No state that nothing reads: the write-only section of
``tools/audit.py``, which states the rule."""

from __future__ import annotations

from tools.audit import write_only_attributes


def test_every_assigned_attribute_is_read_by_the_product():
    unread = write_only_attributes()
    assert not unread, "written, never read:\n" + "\n".join(unread)
