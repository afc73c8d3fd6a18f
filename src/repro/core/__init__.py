"""The paper's primary contribution: LORM and its resource model.

:mod:`repro.core.resource` defines the ⟨a, π_a, ip_addr⟩ vocabulary shared
by every discovery approach; :mod:`repro.core.lorm` implements LORM on
Cycloid; :mod:`repro.core.join` is the database-like join the requester
performs over per-attribute sub-query results.
"""
