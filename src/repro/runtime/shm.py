"""Read-only shared-memory blocks for pooled prediction.

Two kinds of segment live here, both with the same create/attach/unlink
lifecycle:

* :class:`SharedParameterBlock` — a fitted ensemble's weights.  Immutable for
  the pool's lifetime, so sharding its packed forward across worker processes
  must not re-pickle megabytes of parameters into every task: every member's
  parameter tensors are serialised once into a single
  ``multiprocessing.shared_memory`` segment; workers attach by name (a short
  string that travels in the pool initializer) and map each parameter back as
  a **read-only numpy view** — zero copies, zero per-task weight pickling,
  one physical copy of the ensemble no matter how many workers run.
* :class:`SharedArrayBundle` — one packed mega-graph batch's arrays (node /
  edge features, edge index, relation types, graph assignment, metadata).
  Published per chunk by the forward pool so that *tasks* carry only a tiny
  picklable :class:`ArrayBundleSpec` plus member bounds: workers attach and
  view instead of unpickling the packed batch once per shard.

Layout: parameters are packed back to back as contiguous float64 in
``(member, parameter)`` traversal order — the order
:meth:`repro.nn.layers.Module.parameters` yields, which is deterministic for
identically constructed models, so the worker's freshly built members accept
the views positionally.  The picklable :class:`ParameterBlockSpec` carries
the segment name plus every parameter's shape.

Lifecycle: the creating process owns the segment and must call
:meth:`SharedParameterBlock.unlink` when its pool closes; workers only ever
:func:`attach_parameter_block` and drop their maps on exit.  On Python 3.13+
the attach is untracked (``track=False``); on older versions the attach's
``resource_tracker`` registration is a harmless duplicate *because the
attachers are multiprocessing children of the creator* — fork and spawn
workers both inherit the parent's tracker process, so the duplicate add is a
set no-op and only the owner's ``unlink`` ever unregisters the name.
(Attaching from an unrelated process on <= 3.12 would invite the well-known
tracker-unlinks-on-exit wart; the pools here never do that.)
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np


@dataclass(frozen=True)
class ParameterBlockSpec:
    """Picklable description of one shared parameter segment.

    ``member_shapes[m][p]`` is the shape of member ``m``'s parameter ``p``;
    offsets are implied by packing order, so the spec stays tiny (it rides in
    the worker-pool initializer, not in per-task payloads).
    """

    shm_name: str
    member_shapes: tuple[tuple[tuple[int, ...], ...], ...]
    #: Content fingerprint of the model whose weights the segment snapshots
    #: (``None`` when the creator has no fingerprint).  Provenance for
    #: diagnostics under deployment plans — which artifact a worker's
    #: attached weights belong to — never consulted by the forward itself.
    fingerprint: str | None = None

    @property
    def num_members(self) -> int:
        return len(self.member_shapes)

    @property
    def total_elements(self) -> int:
        return sum(
            int(np.prod(shape, dtype=np.int64))
            for member in self.member_shapes
            for shape in member
        )


def _views_from_buffer(
    buffer, spec: ParameterBlockSpec, writeable: bool
) -> list[list[np.ndarray]]:
    """Slice the flat segment back into per-member parameter views."""
    flat = np.frombuffer(buffer, dtype=np.float64, count=spec.total_elements)
    views: list[list[np.ndarray]] = []
    offset = 0
    for member in spec.member_shapes:
        member_views: list[np.ndarray] = []
        for shape in member:
            size = int(np.prod(shape, dtype=np.int64))
            view = flat[offset : offset + size].reshape(shape)
            view.flags.writeable = writeable
            member_views.append(view)
            offset += size
        views.append(member_views)
    return views


class SharedParameterBlock:
    """Owning handle of one shared-memory parameter segment (creator side)."""

    def __init__(self, spec: ParameterBlockSpec, shm: shared_memory.SharedMemory) -> None:
        self.spec = spec
        self._shm = shm

    @staticmethod
    def create(
        member_parameters: list[list[np.ndarray]],
        *,
        fingerprint: str | None = None,
    ) -> "SharedParameterBlock":
        """Pack every member's parameters into a fresh shared segment."""
        if not member_parameters or not any(member_parameters):
            raise ValueError("cannot share an empty parameter set")
        shapes = tuple(
            tuple(tuple(int(d) for d in array.shape) for array in member)
            for member in member_parameters
        )
        total = sum(array.size for member in member_parameters for array in member)
        shm = shared_memory.SharedMemory(create=True, size=max(total * 8, 1))
        spec = ParameterBlockSpec(
            shm_name=shm.name, member_shapes=shapes, fingerprint=fingerprint
        )
        views = _views_from_buffer(shm.buf, spec, writeable=True)
        for member_views, member in zip(views, member_parameters):
            for view, array in zip(member_views, member):
                view[...] = np.asarray(array, dtype=np.float64)
        return SharedParameterBlock(spec, shm)

    @property
    def nbytes(self) -> int:
        return self.spec.total_elements * 8

    def views(self) -> list[list[np.ndarray]]:
        """Read-only in-process views (the serial path can share them too)."""
        return _views_from_buffer(self._shm.buf, self.spec, writeable=False)

    def close(self) -> None:
        self._shm.close()

    def unlink(self) -> None:
        """Release the segment (idempotent; owner-side teardown)."""
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - exported views still alive
            pass
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass


# ------------------------------------------------------------ array bundles

#: Alignment of each array inside a bundle segment.  16 bytes keeps every
#: view's base pointer SIMD-aligned regardless of the preceding array's size.
_BUNDLE_ALIGN = 16


def _aligned(offset: int) -> int:
    return (offset + _BUNDLE_ALIGN - 1) // _BUNDLE_ALIGN * _BUNDLE_ALIGN


@dataclass(frozen=True)
class ArrayBundleSpec:
    """Picklable description of one shared array-bundle segment.

    ``fields`` holds ``(name, shape, dtype-str)`` per array in packing order;
    offsets are implied (each array starts at the next 16-byte boundary), so
    the spec stays a few hundred bytes no matter how large the batch is — it
    rides in every per-shard task payload.
    """

    shm_name: str
    fields: tuple[tuple[str, tuple[int, ...], str], ...]

    def layout(self) -> tuple[list[tuple[str, tuple[int, ...], np.dtype, int]], int]:
        """Per-field ``(name, shape, dtype, byte offset)`` plus total bytes."""
        entries: list[tuple[str, tuple[int, ...], np.dtype, int]] = []
        offset = 0
        for name, shape, dtype_str in self.fields:
            dtype = np.dtype(dtype_str)
            offset = _aligned(offset)
            entries.append((name, shape, dtype, offset))
            offset += int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        return entries, offset

    @property
    def nbytes(self) -> int:
        return self.layout()[1]


def _bundle_views_from_buffer(
    buffer, spec: ArrayBundleSpec, writeable: bool
) -> dict[str, np.ndarray]:
    """Map the flat segment back into named array views."""
    views: dict[str, np.ndarray] = {}
    entries, _ = spec.layout()
    for name, shape, dtype, offset in entries:
        size = int(np.prod(shape, dtype=np.int64))
        view = np.frombuffer(buffer, dtype=dtype, count=size, offset=offset).reshape(
            shape
        )
        view.flags.writeable = writeable
        views[name] = view
    return views


class SharedArrayBundle:
    """Owning handle of one shared array-bundle segment (creator side)."""

    def __init__(self, spec: ArrayBundleSpec, shm: shared_memory.SharedMemory) -> None:
        self.spec = spec
        self._shm = shm

    @staticmethod
    def create(arrays: dict[str, np.ndarray]) -> "SharedArrayBundle":
        """Copy the named arrays into a fresh shared segment, in dict order."""
        if not arrays:
            raise ValueError("cannot share an empty array bundle")
        fields = tuple(
            (name, tuple(int(d) for d in np.asarray(array).shape), np.asarray(array).dtype.str)
            for name, array in arrays.items()
        )
        probe = ArrayBundleSpec(shm_name="", fields=fields)
        total = probe.nbytes
        shm = shared_memory.SharedMemory(create=True, size=max(total, 1))
        spec = ArrayBundleSpec(shm_name=shm.name, fields=fields)
        views = _bundle_views_from_buffer(shm.buf, spec, writeable=True)
        for name, array in arrays.items():
            views[name][...] = np.asarray(array)
        return SharedArrayBundle(spec, shm)

    @property
    def nbytes(self) -> int:
        return self.spec.nbytes

    def views(self) -> dict[str, np.ndarray]:
        """Read-only in-process views (the creating process can share too)."""
        return _bundle_views_from_buffer(self._shm.buf, self.spec, writeable=False)

    def close(self) -> None:
        self._shm.close()

    def unlink(self) -> None:
        """Release the segment (idempotent; owner-side teardown)."""
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - exported views still alive
            pass
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass


def attach_array_bundle(
    spec: ArrayBundleSpec,
) -> tuple[shared_memory.SharedMemory, dict[str, np.ndarray]]:
    """Worker-side attach: map the segment and return read-only named views.

    Same contract and tracker notes as :func:`attach_parameter_block`: keep
    the returned handle referenced while the views are in use, and never
    unlink from the attaching side.
    """
    try:
        shm = shared_memory.SharedMemory(name=spec.shm_name, track=False)
    except TypeError:  # Python < 3.13: no track flag (see module docstring).
        shm = shared_memory.SharedMemory(name=spec.shm_name)
    return shm, _bundle_views_from_buffer(shm.buf, spec, writeable=False)


def attach_parameter_block(
    spec: ParameterBlockSpec,
) -> tuple[shared_memory.SharedMemory, list[list[np.ndarray]]]:
    """Worker-side attach: map the segment and return read-only views.

    The returned ``SharedMemory`` handle must stay referenced as long as the
    views are used (the views borrow its buffer).  The attach is untracked
    where the stdlib allows it (3.13+); on older versions the registration
    lands in the creator's shared tracker as a duplicate no-op (see the
    module docstring), so the worker's exit cannot unlink a segment it does
    not own.
    """
    try:
        shm = shared_memory.SharedMemory(name=spec.shm_name, track=False)
    except TypeError:  # Python < 3.13: no track flag (see module docstring).
        shm = shared_memory.SharedMemory(name=spec.shm_name)
    return shm, _views_from_buffer(shm.buf, spec, writeable=False)
