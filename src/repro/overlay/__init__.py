"""DHT overlay substrates: circular ID spaces, Chord, Cycloid.

Chord (Stoica et al., 2003) is the flat DHT underlying the Mercury, SWORD
and MAAN comparators; Cycloid (Shen, Xu & Chen, 2006) is the hierarchical
constant-degree DHT underlying LORM.  Both are full simulated
implementations: routed lookups with hop accounting, key storage, node
join/leave with key transfer, and routing-state repair under churn —
geometry hooks under the shared
:class:`~repro.overlay.base.Overlay` skeleton.
"""
