"""The ``native`` backend: whole root walks in compiled C.

Profiling the ``bigint`` backend shows the interpreter spine, not the
set operations, is the cost of counting: one Python ``rec`` call per
SCT node.  This backend keeps every big-int kernel op of
:class:`~repro.kernels.bigint.BigIntKernel` (so forest builds,
per-vertex / per-edge attribution, enumeration and all-k runs are
unchanged) and adds two batch entry points.  For an array of roots, one
call into ``native.c`` builds each root's local uint64 rows and runs the
pivot recursion over them, visiting the same tree in the same order as
the Python walker and returning its exact work tallies per root:

* :meth:`NativeKernel.walk_roots_k` counts the k-cliques under each
  root (the target-k engine);
* :meth:`NativeKernel.collect_roots` records every leaf of each root's
  unpruned tree, with optional member ids (dynamic forest updates).

The C source is compiled on first use -- never at ``import repro`` --
with the host's ``cc`` (or ``gcc``) and ``-O3 -fPIC -shared``, into the
user cache directory (``$XDG_CACHE_HOME/repro/native``, else
``~/.cache/repro/native``, else a temp directory), keyed by a hash of
the source, the compiler's version and the flags.  A build is written
under a temporary name and moved into place with :func:`os.replace`,
beside a SHA-256 of the library that is checked before every load, so
concurrent first use and a torn cache file are both safe: a library
that fails its checksum or does not load is rebuilt.  The outcome is
probed once per process; when no working compiler exists the backend
is unavailable and :func:`repro.kernels.resolve_kernel` falls back to
``bigint``.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from repro.errors import CountingError, KernelUnavailableError
from repro.kernels.bigint import BigIntKernel

__all__ = [
    "NativeKernel",
    "NativeLibrary",
    "RootLeaves",
    "RootWalk",
    "LIBRARY",
    "native_unavailable_reason",
]

SOURCE = Path(__file__).with_name("native.c")
CFLAGS = ("-O3", "-fPIC", "-shared")

#: Per-root columns of the walkers' ``stats`` output; the first seven
#: are the Python walker's per-root accumulator, in its order.
COLUMNS = ("calls", "leaves", "early", "scan", "branch", "depth", "edge",
           "d", "flags", "count_lo", "count_hi")
_FLAGS, _LO, _HI = (COLUMNS.index(c) for c in ("flags", "count_lo",
                                                 "count_hi"))
_BUILT = 1
_OVERFLOW = 2

#: Largest binomial table (entries) kept per kernel; leaves needing a
#: row beyond it are flagged overflow and recounted in Python.
_BINOM_MAX_ENTRIES = 1 << 20

_ERRORS = {-1: "out of memory", -2: "vertex id or offset out of range"}


def find_compiler() -> str | None:
    """Path of the C compiler to build with (``cc``, else ``gcc``)."""
    return shutil.which("cc") or shutil.which("gcc")


def cache_dirs() -> list[Path]:
    """Where builds are cached, in order of preference."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return [
        Path(base) / "repro" / "native",
        Path(tempfile.gettempdir()) / f"repro-native-{os.getuid()}",
    ]


class _BuildError(Exception):
    """Why the library could not be built or loaded."""


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class NativeLibrary:
    """Build-once, load-once handle to the compiled walker.

    ``get()`` builds (or reuses a cached build of) ``source`` and loads
    it, once; later calls return the same handle, or raise the same
    :class:`~repro.errors.KernelUnavailableError`.  ``compiler`` and
    ``cache`` are the lookups used, swappable for tests.
    """

    def __init__(self, *, source: Path = SOURCE, compiler=find_compiler,
                 cache=cache_dirs) -> None:
        self.source = Path(source)
        self._compiler = compiler
        self._cache = cache
        self._lock = threading.Lock()
        self._probed = False
        self._lib = None
        self._error: str | None = None

    @property
    def probed(self) -> bool:
        """Whether a build or load has been attempted in this process."""
        return self._probed

    def reason(self) -> str | None:
        """Why the library cannot be used here (``None`` when it can)."""
        self._probe()
        return self._error

    def get(self):
        """The loaded :mod:`ctypes` library."""
        self._probe()
        if self._lib is None:
            raise KernelUnavailableError("native", self._error)
        return self._lib

    def _probe(self) -> None:
        with self._lock:
            if self._probed:
                return
            try:
                self._lib = self._build_and_load()
            except _BuildError as exc:
                self._error = str(exc)
            self._probed = True

    def _build_and_load(self):
        cc = self._compiler()
        if cc is None:
            raise _BuildError("no C compiler found (looked for cc and gcc)")
        try:
            source = self.source.read_bytes()
            version = subprocess.run(
                [cc, "--version"], capture_output=True, timeout=60,
            ).stdout
        except (OSError, subprocess.SubprocessError) as exc:
            raise _BuildError(f"cannot run {cc}: {exc}") from exc
        key = hashlib.sha256(
            source + b"\0" + version + b"\0" + " ".join(CFLAGS).encode()
        ).hexdigest()[:20]
        last = "no writable cache directory"
        for folder in self._cache():
            try:
                folder.mkdir(parents=True, exist_ok=True)
                return self._load_or_build(cc, Path(folder), key)
            except OSError as exc:
                last = f"{folder}: {exc}"
        raise _BuildError(last)

    def _load_or_build(self, cc: str, folder: Path, key: str):
        lib_path = folder / f"sct_walk-{key}.so"
        sum_path = folder / f"sct_walk-{key}.sha256"
        try:
            if sum_path.read_text().strip() == _sha256(lib_path):
                return _open(lib_path)
        except (OSError, _BuildError):
            pass  # missing, torn or unloadable: rebuild below
        fd, tmp = tempfile.mkstemp(dir=folder, prefix=".build-",
                                   suffix=".so")
        os.close(fd)
        tmp = Path(tmp)
        try:
            try:
                proc = subprocess.run(
                    [cc, *CFLAGS, "-o", str(tmp), str(self.source)],
                    capture_output=True, text=True, timeout=300,
                )
            except (OSError, subprocess.SubprocessError) as exc:
                raise _BuildError(f"cannot run {cc}: {exc}") from exc
            if proc.returncode != 0:
                raise _BuildError(
                    f"{cc} failed ({proc.returncode}): "
                    f"{proc.stderr.strip()[-2000:]}"
                )
            # Load before publishing: the mapping stays valid whatever
            # later happens to the file name.
            lib = _open(tmp)
            tmp_sum = tmp.with_suffix(".sha256")
            tmp_sum.write_text(_sha256(tmp) + "\n")
            os.replace(tmp_sum, sum_path)
            os.replace(tmp, lib_path)
            return lib
        finally:
            tmp.unlink(missing_ok=True)
            tmp.with_suffix(".sha256").unlink(missing_ok=True)


def _open(path: Path):
    try:
        lib = ctypes.CDLL(str(path))
    except OSError as exc:
        raise _BuildError(f"cannot load {path}: {exc}") from exc
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    lib.sct_num_cols.argtypes = []
    lib.sct_num_cols.restype = i64
    if lib.sct_num_cols() != len(COLUMNS):
        raise _BuildError(f"{path} does not match {SOURCE.name}")
    lib.sct_binomial_table.argtypes = [i64, i64, ptr, ptr, ptr]
    lib.sct_binomial_table.restype = None
    lib.sct_walk_k.argtypes = [
        i64, ptr, i64, ptr, ptr, ptr, ptr, i64, ctypes.c_int32,
        ptr, ptr, ptr, i64, i64, ptr, ptr,
    ]
    lib.sct_walk_k.restype = ctypes.c_int
    lib.sct_collect.argtypes = [
        i64, ptr, i64, ptr, ptr, ptr, ptr, ctypes.c_int32, ptr, ptr, ptr,
        ptr,
    ]
    lib.sct_collect.restype = ctypes.c_int
    lib.sct_free.argtypes = [ptr]
    lib.sct_free.restype = None
    return lib


#: The process-wide library handle (built and loaded on first use).
LIBRARY = NativeLibrary()


def native_unavailable_reason() -> str | None:
    """Why the native backend cannot run here (``None`` when it can).
    The first call builds or loads the library."""
    return LIBRARY.reason()


@dataclass(frozen=True)
class RootWalk:
    """Per-root results of one :meth:`NativeKernel.walk_roots_k` call,
    aligned with its ``roots``.

    ``stats`` holds one int64 row per root (see :data:`COLUMNS`): the
    exact tallies -- recursion nodes, leaves, early exits, candidates
    scanned by pivot selection, branch vertices, deepest leaf, edge
    work -- then the subgraph size, flags (built / overflow) and the
    count as two uint64 halves.  A count is meaningless where
    :attr:`overflow` is set.
    """

    stats: np.ndarray

    def column(self, name: str) -> np.ndarray:
        return self.stats[:, COLUMNS.index(name)]

    @property
    def built(self) -> np.ndarray:
        return (self.column("flags") & _BUILT) != 0

    @property
    def overflow(self) -> np.ndarray:
        return (self.column("flags") & _OVERFLOW) != 0

    def root(self, i: int) -> tuple[int | None, list[int]]:
        """Root ``i`` as ``(count, tallies)``: its count (``None`` when
        it overflowed) and its tallies in the Python walker's
        accumulator order -- nodes, leaves, early exits, scanned and
        branch vertices, depth, edge work."""
        row = self.stats[i].tolist()
        count = None
        if not row[_FLAGS] & _OVERFLOW:
            count = (row[_HI] % (1 << 64)) << 64 | row[_LO] % (1 << 64)
        return count, row[:7]

    def total(self) -> int:
        """Exact sum of the counts of the roots that did not overflow,
        summed as 32-bit limbs so the uint64 sums cannot wrap."""
        ok = self.stats[~self.overflow]
        total = 0
        for shift, col in ((0, _LO), (64, _HI)):
            words = ok[:, col].view(np.uint64)
            low = int(np.sum(words & np.uint64(0xFFFFFFFF), dtype=np.uint64))
            high = int(np.sum(words >> np.uint64(32), dtype=np.uint64))
            total += (low + (high << 32)) << shift
        return total


@dataclass(frozen=True)
class RootLeaves(RootWalk):
    """Results of one :meth:`NativeKernel.collect_roots` call: the
    per-root tallies (as :class:`RootWalk`, the count columns 0) plus
    every leaf of every root, root after root, each root's leaves in
    DFS order (root ``i`` owns ``column("leaves")[i]`` of them).

    ``held_n`` / ``pivot_n`` are each leaf's held and pivot set sizes
    (int32); ``held_members`` / ``pivot_members`` the leaves' held and
    pivot global ids back to back (int32; held ids start with the
    root), or ``None`` when members were not recorded.
    """

    held_n: np.ndarray
    pivot_n: np.ndarray
    held_members: np.ndarray | None
    pivot_members: np.ndarray | None


def _copy_out(address: int, size: int) -> np.ndarray:
    """A copy of the ``size`` int32 at ``address`` (``sct_collect``
    output; NULL when empty)."""
    if not address:
        return np.zeros(0, dtype=np.int32)
    return np.ctypeslib.as_array(
        (ctypes.c_int32 * size).from_address(address)
    ).copy()


class _Bound(NamedTuple):
    """``sct_walk_k`` arguments fixed by one ``(graph, dag, k)``."""

    graph: object
    dag: object
    k: int
    pos: np.ndarray      # position scratch, all -1 between calls
    head: tuple          # n, CSR pointers, k
    tail: tuple          # binomial table pointers and shape, scratch
    arrays: tuple        # the binomial table the pointers point into


class NativeKernel(BigIntKernel):
    """Big-int kernel ops plus the compiled root walkers."""

    name = "native"
    walks_roots = True

    def __init__(self, library: NativeLibrary | None = None) -> None:
        self._lib = (library or LIBRARY).get()
        # The walker runs without the interpreter lock; the lock keeps
        # concurrent callers off the shared position scratch.
        self._lock = threading.Lock()
        self._bound: _Bound | None = None
        self._pos = np.zeros(0, dtype=np.int32)

    def _scratch(self, n: int) -> np.ndarray:
        """The position scratch for ``n`` vertices (all -1 between
        calls; call with the lock held)."""
        if self._pos.size != n:
            self._pos = np.full(n, -1, dtype=np.int32)
        return self._pos

    def _bind(self, graph, dag, k: int) -> _Bound:
        """The ``sct_walk_k`` arguments fixed by ``(graph, dag, k)``,
        cached: pointers into the CSR arrays, the binomial table, and
        the position scratch."""
        b = self._bound
        if b is not None and b.graph is graph and b.dag is dag and b.k == k:
            return b
        n = graph.num_vertices
        if dag.num_vertices != n or k < 1:
            raise CountingError("walk_roots_k: bad graph pair or k")
        nmax = dag.max_degree
        rmax = max(0, min(k - 1, nmax))
        nmax = min(nmax, _BINOM_MAX_ENTRIES // (rmax + 1) - 1)
        rmax = min(rmax, nmax)
        size = (nmax + 1) * (rmax + 1)
        lo = np.empty(size, dtype=np.uint64)
        hi = np.empty(size, dtype=np.uint64)
        sat = np.empty(size, dtype=np.uint8)
        self._lib.sct_binomial_table(
            nmax, rmax, lo.ctypes.data, hi.ctypes.data, sat.ctypes.data
        )
        pos = self._scratch(n)
        head = (*_csr_args(graph, dag), k)
        tail = (lo.ctypes.data, hi.ctypes.data, sat.ctypes.data, nmax,
                rmax + 1, pos.ctypes.data)
        self._bound = _Bound(graph, dag, k, pos, head, tail, (lo, hi, sat))
        return self._bound

    def walk_roots_k(self, graph, dag, roots: np.ndarray, k: int,
                     early_termination: bool = True) -> RootWalk:
        """Build and walk every root in ``roots`` for target ``k``.

        ``graph`` is the undirected graph and ``dag`` its orientation;
        ``roots`` an int64 array of vertex ids.  Local ids, pivot
        choices, degree pruning, the reach cut and every tally match
        the Python walker (``SCTEngine._count_root_k`` on ``bigint``).
        """
        roots = np.ascontiguousarray(roots, dtype=np.int64)
        stats = np.empty((roots.size, len(COLUMNS)), dtype=np.int64)
        with self._lock:
            b = self._bind(graph, dag, k)
            rc = self._lib.sct_walk_k(
                roots.size, roots.ctypes.data, *b.head,
                1 if early_termination else 0, *b.tail, stats.ctypes.data,
            )
        _raise_for(rc)
        return RootWalk(stats)

    def collect_roots(self, graph, dag, roots: np.ndarray,
                      members: bool = True) -> RootLeaves:
        """Build every root in ``roots`` and record its leaves.

        Runs the unpruned pivot recursion (no k, no cuts) that
        :func:`repro.counting.forest._collect_root` runs on ``bigint``:
        the same local ids, pivot choices, leaf order, held/pivot ids
        and tallies (no early exits; the count columns stay 0).
        ``members=False`` records only the set sizes.
        """
        if dag.num_vertices != graph.num_vertices:
            raise CountingError("collect_roots: bad graph pair")
        roots = np.ascontiguousarray(roots, dtype=np.int64)
        stats = np.empty((roots.size, len(COLUMNS)), dtype=np.int64)
        out = np.zeros(4, dtype=np.uintp)
        lens = np.zeros(4, dtype=np.int64)
        with self._lock:
            pos = self._scratch(graph.num_vertices)
            rc = self._lib.sct_collect(
                roots.size, roots.ctypes.data, *_csr_args(graph, dag),
                1 if members else 0, pos.ctypes.data, stats.ctypes.data,
                out.ctypes.data, lens.ctypes.data,
            )
        _raise_for(rc)
        try:
            held_n, pivot_n, held_ids, pivot_ids = (
                _copy_out(a, m) for a, m in zip(out.tolist(), lens.tolist())
            )
        finally:
            for address in out.tolist():
                if address:
                    self._lib.sct_free(address)
        return RootLeaves(
            stats, held_n, pivot_n,
            held_ids if members else None,
            pivot_ids if members else None,
        )


def _csr_args(graph, dag) -> tuple:
    """``n`` and the CSR pointers the C walkers take."""
    return (graph.num_vertices, graph.indptr.ctypes.data,
            graph.indices.ctypes.data, dag.indptr.ctypes.data,
            dag.indices.ctypes.data)


def _raise_for(rc: int) -> None:
    if rc == -1:
        raise MemoryError("native walker: out of memory")
    if rc != 0:
        raise CountingError(f"native walker failed: {_ERRORS.get(rc, rc)}")
