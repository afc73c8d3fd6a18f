"""The requester-side database-like join (Section III).

After the parallel per-attribute sub-queries return, "the requester node
then concatenates the results in a database-like 'join' operation based on
ip_addr" — i.e. the answer to an m-attribute request is the set of
providers appearing in *every* sub-query's result.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable
from operator import attrgetter

from repro.core.resource import ResourceInfo

__all__ = ["join_on_provider"]

_provider = attrgetter("provider")


def join_on_provider(
    per_attribute_matches: Iterable[Collection[ResourceInfo]],
) -> frozenset[str]:
    """Providers present in every per-attribute result set.

    One set is built, from the smallest sub-result; the others are
    intersected into it as they stream past, so no set is built per
    sub-query.

    Parameters
    ----------
    per_attribute_matches:
        One collection of :class:`ResourceInfo` per queried attribute.

    Returns
    -------
    frozenset[str]
        The provider addresses satisfying all attributes; empty when any
        sub-query returned nothing (or there were no sub-queries).

    Examples
    --------
    >>> a = [ResourceInfo("cpu", 2000, "n1"), ResourceInfo("cpu", 1500, "n2")]
    >>> b = [ResourceInfo("mem", 4096, "n2")]
    >>> sorted(join_on_provider([a, b]))
    ['n2']
    """
    ordered = sorted(per_attribute_matches, key=len)
    if not ordered:
        return frozenset()
    return frozenset(map(_provider, ordered[0])).intersection(
        *[map(_provider, matches) for matches in ordered[1:]]
    )
