"""2-bit packed sequence storage and vectorized k-mer extraction.

The paper stores sequences at 2 bits/base (§IV). :class:`PackedSequence`
provides that storage; :func:`pack_bits` is also the packer behind the
comparison kernels' ``uint64`` words (:mod:`repro.index.compare`), and
:func:`kmer_codes` gives the integer value of the ``ℓs``-mer starting at
every position, computed with a vectorized Horner scan (this is what both
the index construction of Algorithm 1 and the per-thread query-seed lookups
consume).

For the process-sharded execution tier, :meth:`PackedSequence.to_shared` /
:meth:`PackedSequence.from_shared` move the packed buffer into a named
``multiprocessing.shared_memory`` segment: worker processes attach to the
2-bit genome *by name* (a :class:`SharedSequenceHandle` is a few strings)
instead of re-pickling megabytes of reference per task.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass

import numpy as np

from repro.analysis import resource_tracker as _res
from repro.errors import InvalidSequenceError
from repro.sequence.alphabet import decode, encode

def _defuse_shared_memory(shm) -> None:
    """Make ``SharedMemory.__del__`` a no-op on a close that raced shutdown.

    When ``close()`` raises ``BufferError`` during interpreter
    finalization (an exported numpy view outlived teardown order), the
    destructor would re-raise the same error as an "Exception ignored"
    message. Blank the instance fields instead: the view's buffer chain
    keeps the mapping alive, and process exit unmaps it either way.
    """
    try:
        fd = shm._fd
        if fd >= 0:
            os.close(fd)
    except (AttributeError, OSError):  # pragma: no cover - exotic platforms
        pass
    try:
        shm._fd = -1
        shm._mmap = None
        shm._buf = None
    except AttributeError:  # pragma: no cover - stdlib layout change
        pass



@dataclass(frozen=True)
class SharedSequenceHandle:
    """Picklable pointer to a shared 2-bit packed sequence.

    Only plain strings and ints — shipping one across a process boundary
    costs a few bytes regardless of genome size. Attach with
    :meth:`PackedSequence.from_shared` (or :meth:`attach`).
    """

    #: ``multiprocessing.shared_memory`` segment name.
    shm_name: str
    #: Sequence length in bases (the packed buffer holds ``ceil(n/4)`` bytes).
    n_bases: int
    #: Optional human-readable sequence name (FASTA header etc.).
    name: str = ""

    def attach(self) -> "PackedSequence":
        """Attach to the segment (see :meth:`PackedSequence.from_shared`)."""
        return PackedSequence.from_shared(self)


def _untrack_shared_memory(shm) -> None:
    """Stop the resource tracker from reaping an attached segment.

    Before Python 3.13 (``track=False``), *attaching* also registers the
    segment with the attacher's resource tracker. For the process pools this
    repo spawns that is harmless — ``multiprocessing`` hands children the
    parent's tracker fd, so the registration is an idempotent set-add paired
    with the owner's eventual unlink, and unregistering here would delete the
    owner's entry out from under it. Only a *standalone* attacher (its own
    tracker, e.g. a separately launched process) must call this, or its
    tracker will unlink the owner's segment when the attacher exits.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:  # pragma: no cover - best effort across CPython versions
        pass


def pack_bits(codes: np.ndarray) -> np.ndarray:
    """Pack a 2-bit code array into a ``uint8`` buffer, 4 bases per byte.

    Base ``i`` occupies bits ``2*(i % 4) .. 2*(i % 4)+1`` of byte ``i // 4``
    (little-endian within the byte). The final partial byte is zero-padded.
    """
    codes = np.ascontiguousarray(codes, dtype=np.uint8)
    n = codes.size
    padded = np.zeros((n + 3) // 4 * 4, dtype=np.uint8)
    padded[:n] = codes
    quads = padded.reshape(-1, 4)
    return (
        quads[:, 0]
        | (quads[:, 1] << 2)
        | (quads[:, 2] << 4)
        | (quads[:, 3] << 6)
    ).astype(np.uint8)


def unpack_bits(buf: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`: recover the first ``n`` base codes."""
    buf = np.asarray(buf, dtype=np.uint8)
    if n > buf.size * 4:
        raise InvalidSequenceError(f"cannot unpack {n} bases from {buf.size} bytes")
    out = np.empty(buf.size * 4, dtype=np.uint8)
    out[0::4] = buf & 0b11
    out[1::4] = (buf >> 2) & 0b11
    out[2::4] = (buf >> 4) & 0b11
    out[3::4] = (buf >> 6) & 0b11
    return out[:n]


def kmer_codes(codes: np.ndarray, k: int) -> np.ndarray:
    """Integer value of the ``k``-mer starting at each position.

    Returns an ``int64`` array of length ``len(codes) - k + 1`` where entry
    ``i`` is ``sum_j codes[i+j] * 4**(k-1-j)`` — i.e. the big-endian base-4
    value of ``codes[i:i+k]``, matching the seed integers of §III-A.

    Computed with a rolling update (one vectorized pass), so it costs
    ``O(n)`` regardless of ``k``.
    """
    codes = np.ascontiguousarray(codes, dtype=np.uint8)
    n = codes.size
    if k <= 0:
        raise InvalidSequenceError(f"k-mer length must be positive, got {k}")
    if k > 31:
        raise InvalidSequenceError(f"k-mer length {k} exceeds int64 capacity (31)")
    if n < k:
        return np.empty(0, dtype=np.int64)
    c = codes.astype(np.int64)
    # Horner for the first window, then roll: out[i+1] = (out[i] - c[i]*4^(k-1))*4 + c[i+k]
    # Vectorized equivalent: cumulative weighted sum differences.
    weights = 4 ** np.arange(k - 1, -1, -1, dtype=np.int64)
    # Sliding dot product via cumsum of c * 4^{-(i)} would lose precision;
    # use stride tricks instead: for k <= 31 and n up to tens of millions the
    # windowed matmul is memory-light because sliding_window_view is a view.
    windows = np.lib.stride_tricks.sliding_window_view(c, k)
    return windows @ weights


class PackedSequence:
    """A DNA sequence stored at 2 bits per base.

    Construction accepts a string, bytes, or a code array. The unpacked code
    array is materialized lazily and cached, because the matcher pipeline
    works on codes while memory accounting (the GPU device budget) is charged
    for the packed representation only — exactly the paper's setting.
    """

    __slots__ = ("_packed", "_n", "_codes", "name", "_shm", "_shm_owner")

    def __init__(self, seq, *, name: str = ""):
        codes = encode(seq) if not isinstance(seq, PackedSequence) else seq.codes()
        self._n = int(codes.size)
        self._packed = pack_bits(codes)
        self._codes: np.ndarray | None = np.ascontiguousarray(codes, dtype=np.uint8)
        self.name = name
        #: Live ``SharedMemory`` object when this sequence owns or is
        #: attached to a shared segment (see :meth:`to_shared`).
        self._shm = None
        self._shm_owner = False

    @classmethod
    def from_packed(cls, packed: np.ndarray, n: int, *, name: str = "") -> "PackedSequence":
        """Wrap an already 2-bit packed buffer without re-encoding.

        ``packed`` must follow the :func:`pack_bits` layout (4 bases/byte,
        zero-padded final byte); ``n`` is the base count. The buffer is
        referenced, not copied — this is the zero-copy attach path.
        """
        packed = np.asarray(packed, dtype=np.uint8)
        if n > packed.size * 4 or n < 0:
            raise InvalidSequenceError(
                f"cannot view {n} bases over {packed.size} packed bytes"
            )
        seq = cls.__new__(cls)
        seq._n = int(n)
        seq._packed = packed
        seq._codes = None
        seq.name = name
        seq._shm = None
        seq._shm_owner = False
        return seq

    # -- basic container protocol -------------------------------------------------
    def __len__(self) -> int:
        return self._n

    def __getitem__(self, item):
        if isinstance(item, slice):
            return PackedSequence(self.codes()[item], name=self.name)
        return int(self.codes()[item])

    def __eq__(self, other) -> bool:
        if isinstance(other, PackedSequence):
            return self._n == other._n and np.array_equal(self.codes(), other.codes())
        return NotImplemented

    def __hash__(self):  # pragma: no cover
        raise TypeError("PackedSequence is unhashable")

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"PackedSequence(n={self._n}{label})"

    # -- views --------------------------------------------------------------------
    def codes(self) -> np.ndarray:
        """The unpacked ``uint8`` code array (cached)."""
        if self._codes is None:
            self._codes = unpack_bits(self._packed, self._n)
        return self._codes

    def drop_code_cache(self) -> None:
        """Release the unpacked cache (keeps only the 2-bit buffer)."""
        self._codes = None

    @property
    def packed(self) -> np.ndarray:
        """The raw packed ``uint8`` buffer (4 bases/byte)."""
        return self._packed

    @property
    def nbytes_packed(self) -> int:
        """Memory footprint of the packed representation, in bytes."""
        return int(self._packed.nbytes)

    def to_string(self) -> str:
        """Decode back to an ``ACGT`` string."""
        return decode(self.codes())

    # -- shared memory ------------------------------------------------------------
    def to_shared(self, *, shm_name: str | None = None) -> SharedSequenceHandle:
        """Publish the packed buffer into a named shared-memory segment.

        Creates (or reuses, on repeat calls) a ``multiprocessing.shared_memory``
        segment holding the 2-bit buffer and returns a picklable
        :class:`SharedSequenceHandle`. The owning sequence keeps the segment
        alive; call :meth:`unlink_shared` to destroy it when all workers have
        detached.
        """
        if self._shm is not None:
            return SharedSequenceHandle(
                shm_name=self._shm.name, n_bases=self._n, name=self.name
            )
        from multiprocessing import shared_memory

        nbytes = max(1, self._packed.nbytes)  # zero-size segments are illegal
        shm = shared_memory.SharedMemory(create=True, size=nbytes, name=shm_name)
        try:
            view = np.frombuffer(shm.buf, dtype=np.uint8, count=self._packed.size)
            view[:] = self._packed
            del view  # release the exported buffer before anyone can close()
        except BaseException:
            # The segment exists in the kernel the moment create=True
            # returns: a failed copy must tear it down or it outlives the
            # process (RL101 — the exact leak this guards against).
            shm.close()
            shm.unlink()
            raise
        self._shm = shm
        self._shm_owner = True
        _res.shm_created(shm.name, nbytes)
        return SharedSequenceHandle(shm_name=shm.name, n_bases=self._n, name=self.name)

    @classmethod
    def from_shared(cls, handle: SharedSequenceHandle) -> "PackedSequence":
        """Attach to a segment published by :meth:`to_shared` (zero-copy).

        The returned sequence's packed buffer is a view over the shared
        segment: no bytes of reference are copied into this process. Call
        :meth:`close_shared` to detach (the owner's segment survives).
        """
        from multiprocessing import shared_memory

        try:
            shm = shared_memory.SharedMemory(name=handle.shm_name, track=False)
        except TypeError:  # Python < 3.13: no track kwarg
            # Registration with the (inherited, shared) tracker is an
            # idempotent no-op here; see _untrack_shared_memory for when an
            # attacher must actively untrack.
            shm = shared_memory.SharedMemory(name=handle.shm_name)
        packed_len = (handle.n_bases + 3) // 4
        packed = np.frombuffer(shm.buf, dtype=np.uint8, count=packed_len)
        seq = cls.from_packed(packed, handle.n_bases, name=handle.name)
        seq._shm = shm
        seq._shm_owner = False
        _res.shm_attached(shm.name)
        return seq

    def close_shared(self, *, materialize: bool = True) -> None:
        """Detach from the shared segment.

        ``shm.close()`` raises ``BufferError`` while numpy views over
        ``shm.buf`` are alive, so the packed buffer is first materialized
        into private memory (keeping the sequence usable). Pass
        ``materialize=False`` for teardown-only detaches — the packed
        buffer is dropped instead of copied and only an already-unpacked
        code cache stays usable. Idempotent; a no-op when not shared, and
        safe to call from finalizers during interpreter shutdown: if
        teardown order left an exported view alive, the mapping is left
        for the OS to reclaim instead of raising ``BufferError`` out of
        ``__del__``/``atexit`` machinery.
        """
        shm = self._shm
        if shm is None:
            return
        if materialize:
            self._packed = np.array(self._packed, dtype=np.uint8, copy=True)
        else:
            self._packed = np.empty(0, dtype=np.uint8)
        owner = self._shm_owner
        self._shm = None
        self._shm_owner = False
        try:
            shm.close()
        except BufferError:
            if not sys.is_finalizing():
                # A caller still holds a view of the *old* packed buffer:
                # restore state so a later retry (after the view dies) works.
                self._shm = shm
                self._shm_owner = owner
                raise
            _defuse_shared_memory(shm)
            return  # shutdown: process exit unmaps everything anyway
        _res.shm_closed(shm.name, owner=owner)

    def unlink_shared(self) -> None:
        """Destroy the shared segment (owner teardown): detach then unlink.

        Tolerates the name being gone already: a *crashed* attacher's
        ``multiprocessing`` resource tracker (which registers attachments
        before Python 3.13's ``track=False``) may reap the segment when
        the attacher dies between attach and detach. The owner's teardown
        must still succeed — the goal state (no segment) is reached either
        way.
        """
        if self._shm is None:
            return
        shm = self._shm
        self.close_shared()
        try:
            shm.unlink()
        except FileNotFoundError:
            pass
        _res.shm_unlinked(shm.name)

    # -- pickling -----------------------------------------------------------------
    def __getstate__(self):
        # Self-contained: ship packed bytes, never the SharedMemory object
        # (unpicklable) nor a live buffer view over it.
        return {
            "packed": np.array(self._packed, dtype=np.uint8, copy=True).tobytes(),
            "n": self._n,
            "name": self.name,
        }

    def __setstate__(self, state):
        self._n = int(state["n"])
        self._packed = np.frombuffer(state["packed"], dtype=np.uint8).copy()
        self._codes = None
        self.name = state["name"]
        self._shm = None
        self._shm_owner = False

    # -- bulk extraction ----------------------------------------------------------
    def kmers(self, k: int) -> np.ndarray:
        """Integer seed values at every start position (see :func:`kmer_codes`)."""
        return kmer_codes(self.codes(), k)
