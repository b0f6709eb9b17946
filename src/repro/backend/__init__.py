"""The forward-path kernels of the packed mega-graph forward.

The serving hot path — dense matmuls plus scatter-adds over relation edges —
is expressed once as the methods of :class:`ArrayBackend` and reached
through :func:`active_backend`, which returns the one process-wide
instance.  Its expressions are the historical numpy ones, so every forward
is bitwise reproducible; its :class:`BackendStats` tally the kernel calls
made inside forward scopes (reported by ``runtime_stats()["backend"]``).
"""

from repro.backend.base import ArrayBackend, BackendStats, active_backend

__all__ = ["ArrayBackend", "BackendStats", "active_backend"]
