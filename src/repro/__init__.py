"""repro — reproduction of Shen & Xu (ICPP 2009).

"Performance Analysis of DHT Algorithms for Range-Query and Multi-Attribute
Resource Discovery in Grids".

The package provides:

* :mod:`repro.overlay` — Chord and Cycloid DHT overlay substrates with hop
  accounting, churn handling and self-organization.
* :mod:`repro.core` — the LORM resource-discovery approach (the paper's
  primary contribution) built on Cycloid.
* :mod:`repro.baselines` — Mercury (multi-DHT), SWORD (single-DHT
  centralized) and MAAN (single-DHT decentralized) comparators on Chord.
* :mod:`repro.hashing` — consistent hashing ``H`` and locality-preserving
  hashing (LPH) ``ℋ``.
* :mod:`repro.sim` — discrete-event engine, Poisson churn, metrics.
* :mod:`repro.workloads` — Bounded-Pareto grid resource/query generators.
* :mod:`repro.analysis` — closed forms of Theorems 4.1–4.10.
* :mod:`repro.experiments` — regenerates every figure of the paper
  (Figures 3a–d, 4a–b, 5a–b, 6a–b).

Quickstart — a toy-scale LORM grid, seeded end to end:

>>> from repro import ExperimentConfig, GridWorkload, LormService
>>> cfg = ExperimentConfig(dimension=4, chord_bits=6, num_attributes=6,
...                        infos_per_attribute=20, max_query_attributes=3)
>>> service = LormService.build_full(cfg.dimension, cfg.schema(), seed=1)
>>> workload = GridWorkload(schema=cfg.schema(),
...                         infos_per_attribute=cfg.infos_per_attribute, seed=2)
>>> routed_hops = sum(map(service.register, workload.resource_infos()))
>>> query = workload.sample_multi_query(num_attributes=3)
>>> result = service.multi_query(query)
>>> sorted(result.providers), result.total_visited
(['grid-node-00000', 'grid-node-00019'], 7)
>>> result.providers == workload.matching_providers_bruteforce(query)
True
"""

from repro.baselines.base import DiscoveryService
from repro.baselines.maan import MaanService
from repro.baselines.mercury import MercuryService
from repro.baselines.sword import SwordService
from repro.core.lorm import LormService
from repro.core.resource import (
    AttributeConstraint,
    MultiAttributeQuery,
    Query,
    ResourceInfo,
)
from repro.experiments.config import ExperimentConfig
from repro.hashing.consistent import ConsistentHash
from repro.hashing.locality import CdfLocalityHash, LinearLocalityHash
from repro.overlay.chord import ChordRing
from repro.overlay.cycloid import CycloidOverlay
from repro.workloads.generator import GridWorkload

__version__ = "1.0.0"

__all__ = [
    "AttributeConstraint",
    "CdfLocalityHash",
    "ChordRing",
    "ConsistentHash",
    "CycloidOverlay",
    "DiscoveryService",
    "ExperimentConfig",
    "GridWorkload",
    "LinearLocalityHash",
    "LormService",
    "MaanService",
    "MercuryService",
    "MultiAttributeQuery",
    "Query",
    "ResourceInfo",
    "SwordService",
    "__version__",
]
