"""Workload generation per Section V of the paper.

m = 200 resource attributes, k = 500 resource-information pieces per
attribute, values drawn from a Bounded Pareto distribution, query attributes
chosen uniformly at random, and range queries whose expected covered
fraction of the value space is 1/4 (the paper's "average case" regime of
Theorem 4.9).
"""

from repro.workloads.attributes import AttributeSchema, AttributeSpec
from repro.workloads.generator import GridWorkload, QueryKind
from repro.workloads.pareto import BoundedPareto
from repro.workloads.popularity import (
    PopularityModel,
    UniformPopularity,
    ZipfPopularity,
)
from repro.workloads.serialization import load_workload, save_workload

__all__ = [
    "AttributeSchema",
    "AttributeSpec",
    "BoundedPareto",
    "GridWorkload",
    "PopularityModel",
    "QueryKind",
    "UniformPopularity",
    "ZipfPopularity",
    "load_workload",
    "save_workload",
]
