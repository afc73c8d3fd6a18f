"""Hash functions used by every discovery approach.

``H`` — :class:`~repro.hashing.consistent.ConsistentHash` — maps attribute
names (and, in SWORD/MAAN, attribute strings) uniformly onto a DHT ID space
per Karger et al.'s consistent hashing.

``ℋ`` — the locality-preserving hashes in :mod:`repro.hashing.locality` —
map attribute *values* onto an ID space while preserving order, which is
what makes successor-walk range queries correct (MAAN's construction, also
used by Mercury hubs and by LORM's cyclic-index dimension).
"""
