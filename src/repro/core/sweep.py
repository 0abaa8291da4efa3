"""The array-backend evaluation engine: incremental checkpoint-set sweeps.

This module is the one place that knows how the array backends compute the
Theorem-3 expected makespan.  :class:`SweepState` evaluates checkpoint sets
over one fixed linearization on the ``"numpy"`` backend, or — with the
Algorithm-1 fill and the Theorem-3 recursion swapped for the compiled
kernels of :mod:`repro.core.evaluator_native` — on ``"native"``.  A one-shot
``evaluate_schedule(..., backend="numpy" | "native")`` is a fresh state
evaluated once: a sweep of length one.

Every optimisation layer of this reproduction — the paper's ``N = 1..n-1``
checkpoint-count search (Section 5), greedy construction, and local-search
refinement — evaluates a *sweep of near-identical candidates*: consecutive
candidate sets differ by a handful of checkpoint toggles.  A state keeps the
whole evaluation pipeline materialised between candidates and recomputes
only what a toggle can actually change.  Three structural facts make the
delta small:

* ``loss[k][i]`` (the :math:`W^i_k + R^i_k` sums of Algorithm 1) depends only
  on checkpoint states at positions ``< k`` — toggling the checkpoint at
  position ``c`` leaves every row ``k <= c`` untouched;
* within the invalidated rows ``k > c``, the Algorithm-1 traversal can only be
  perturbed when ``c`` is an ancestor of some charged position, so rows whose
  reachable-position set (precomputed once per linearization as a bitmask)
  does not contain ``c`` are skipped wholesale;
* the Theorem-3 recursion at position ``i`` reads only loss rows ``k <= i``
  and checkpoint costs at positions ``<= i``, so the per-position
  expectations, event probabilities and running prefix sums for positions
  ``< c`` are reused verbatim — the kernel resumes at ``i = c`` from a stored
  history of the running sums.

The fill never walks the DAG per ``(k, i)`` pair.  Only positions ``i`` with
a direct predecessor placed before ``k`` can charge anything for a failure
during :math:`X_k` (:func:`_candidate_lists`), and the set such a traversal
visits is the union of the direct predecessors' *closure bitmasks*
(:func:`_closure_masks`) below ``k``, minus what earlier candidates already
regenerated.  Each visited set is priced by the fixed-width value canon of
:func:`_charge_lut` / :func:`_mask_charges`, so an entry's value does not
depend on how rows are grouped or in which order they are refilled.

Reused prefixes and recomputed suffixes therefore see bitwise-identical
inputs and apply the same floating-point operation sequence, so a
:class:`SweepState` evaluation is **bit-for-bit equal** to a fresh state's
evaluation of the same set on the same backend — and hence to the one-shot
``evaluate_schedule`` (the property suites in
``tests/test_backend_equivalence.py`` and ``tests/test_native_backend.py``
pin this).  The only regime that defeats prefix reuse is overflow saturation
(``inf`` conditional expectations switch the numpy kernel to masked dot
products); the engine detects it and falls back to a full kernel re-run for
exactly those evaluations.  Against the Python reference the array backends
agree within 1e-9 relative, not bit for bit.

Arbitrary candidate batches degrade gracefully: the cost of an evaluation is
proportional to the suffix behind the *lowest* toggled position, so a batch of
unrelated sets simply pays full-recompute cost — no separate eager fallback
path is needed, and callers never have to classify their batches.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left
from dataclasses import dataclass, replace
from itertools import chain
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from .backend import BACKEND_REGISTRY
from .evaluator import MakespanEvaluation
from .expectation import _SMALL_EXPOSURE, OVERFLOW_EXPONENT
from .lost_work import _position_tables
from .platform import Platform
from .dag import Workflow
from .schedule import Schedule

__all__ = ["SweepState", "SweepStats", "batch_evaluate"]

#: Scratch budget of one bulk-fill chunk (bytes per mask buffer).  Rows are
#: priced independently, so chunking only bounds peak memory — it cannot
#: change any value.
_FILL_CHUNK_BYTES = 32 * 1024 * 1024

#: Distinct relevant-configuration contents remembered per Algorithm-1 row.
#: Probe sweeps oscillate between a base configuration and single-toggle
#: variants, so a handful of entries catches the "toggle reverted, row back
#: to base" refills with a copy instead of a recompute; add-one sweeps never
#: revisit a configuration and simply pay one dict miss per refill.
_ROW_CACHE_ENTRIES = 4

#: Shared per-(workflow, order) table entries reused across
#: :class:`SweepState` constructions.  One-shot evaluation paths
#: (``evaluate_schedule`` on the numpy and native backends) build a fresh
#: state per call, so repeated evaluations of one instance would otherwise
#: re-validate the linearization and rebuild every position/candidate/mask
#: table each time.  Keyed by ``(id(workflow), order)``; each entry keeps a
#: strong reference to its workflow, so an ``id`` cannot be recycled while
#: its entry is alive.  Bounded LRU.
_TABLES_LRU_ENTRIES = 8
_TABLES_CACHE: dict[tuple[int, tuple[int, ...]], "_InstanceTables"] = {}

#: The 256 x 8 little-endian bit-expansion table of the charge LUT: row
#: ``v`` holds the bits of byte value ``v``.
_BYTE_BITS = np.unpackbits(
    np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little"
)


# ----------------------------------------------------------------------
# Algorithm-1 fill primitives (candidate pruning, closure masks, value canon)
# ----------------------------------------------------------------------
def _candidate_lists(n: int, predecessors: Sequence[tuple[int, ...]]) -> list[list[int]]:
    """For every ``k``, the positions ``i >= k`` that can charge anything.

    A failure during :math:`X_k` costs something at position ``i`` only if the
    traversal from ``T_i`` reaches below ``k`` — which requires a *direct*
    predecessor at a position ``< k``.  Position ``i`` therefore matters
    exactly for ``k`` in ``(min_pred[i], i]``; everything else is a
    structural zero.
    """
    cands: list[list[int]] = [[] for _ in range(n + 2)]
    for i in range(1, n + 1):
        preds = predecessors[i]
        if not preds:
            continue
        for k in range(preds[0] + 1, i + 1):
            cands[k].append(i)
    return cands


def _closure_masks(
    n: int,
    predecessors: Sequence[tuple[int, ...]],
    checkpointed: Sequence[int],
) -> tuple[list[int], list[int]]:
    """Per-position traversal bitmasks: ``(closures, frontiers)``.

    ``closures[p]`` contains ``p`` itself plus, when ``p`` is *not*
    checkpointed, the closure of every direct predecessor — i.e. everything
    Algorithm 1 walks when the output of position ``p`` is needed and nothing
    has been regenerated yet.  Checkpointed positions stop the recursion:
    they are recovered from disk, so their own inputs are never needed.
    ``frontiers[p]`` is the union of the direct predecessors' closures
    regardless of ``p``'s own checkpoint state — the set a failure traversal
    *starting* at ``p`` visits.  Predecessors sit at smaller positions in a
    linearization, so one ascending pass computes both.

    The closure-mask shortcut is exact because the regenerated set is closed
    under predecessor descent: when a non-checkpointed position is first
    visited, its whole closure is pushed within the same traversal, so any
    member of :math:`T^{\\downarrow k}_i` reachable only through regenerated
    intermediates is itself already regenerated.
    """
    closures = [0] * (n + 1)
    frontiers = [0] * (n + 1)
    for p in range(1, n + 1):
        frontier = 0
        for q in predecessors[p]:
            frontier |= closures[q]
        frontiers[p] = frontier
        closures[p] = (1 << p) | (0 if checkpointed[p] else frontier)
    return closures, frontiers


def _iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _charge_lut(charge_bits: Any) -> Any:
    """Per-byte charge lookup table — the first half of the value canon.

    ``charge_bits`` holds one charge per bit position (zero-padded to
    ``8 * mask_bytes``); the result is a ``(mask_bytes, 256)`` float64 table
    whose ``[b, v]`` entry is the canonical charge sum of byte value ``v``
    at byte position ``b`` (a fixed-width-8 numpy reduction).  Incremental
    maintainers must rebuild a row with the identical expression
    (``(_BYTE_BITS * charge_bits[8 * b : 8 * b + 8]).sum(axis=1)``) so cached
    and freshly built tables stay bit-identical.
    """
    mask_bytes = charge_bits.shape[0] // 8
    return (_BYTE_BITS * charge_bits.reshape(mask_bytes, 1, 8)).sum(axis=2)


def _mask_charges(mask_rows: Any, charge_lut: Any) -> Any:
    """Charge sums of visited-set bitmask rows (the shared value canon).

    ``mask_rows`` is a ``(m, mask_bytes)`` uint8 matrix of little-endian
    visited bitmasks, every row non-empty; the result is the float64 vector
    of per-row charge sums.  Each row is priced by gathering its bytes'
    precomputed charges from :func:`_charge_lut` and reducing them with
    numpy's pairwise summation over the fixed width ``mask_bytes``, which
    depends only on that width — never on ``m`` or on neighbouring rows —
    so every refill that prices the same visited set gets the bit-identical
    float, however the rows are grouped.
    """
    per_byte = charge_lut[np.arange(charge_lut.shape[0]), mask_rows]
    return per_byte.sum(axis=1)


class _InstanceTables:
    """Backend-independent tables of one (workflow, order) instance.

    Everything here is a pure function of the workflow and its linearization
    — never of the checkpoint configuration — and is treated as read-only
    after construction, so any number of :class:`SweepState` instances (and
    both the numpy and native backends) can share one entry.  The
    fill-variant sections (padded candidate matrix for the numpy fill, CSR
    mirrors for the C fill) and the delta tables are built lazily by the
    first state that needs them; rebuilds are idempotent, so a racing
    duplicate build is wasteful but never wrong.
    """

    __slots__ = (
        "workflow",
        "order",
        "n",
        "position",
        "weight",
        "recovery_cost",
        "predecessors",
        "candidates",
        "cand_len",
        "m_max",
        "mask_bytes",
        "mask_words",
        "weights",
        "raw_ckpt_costs",
        "charge_template",
        "charge_positive",
        "pfbase",
        "pred_arrays",
        "pf_rows",
        "cand_pad",
        "trunc_dst",
        "trunc_src",
        "cand_ptr",
        "cand_idx",
        "pred_ptr",
        "pred_idx",
        "cand_total",
        "row_reach",
        "desc",
    )

    def __init__(self, workflow: Workflow, order: tuple[int, ...]) -> None:
        self.workflow = workflow
        self.order = order
        n = len(order)
        self.n = n
        position, weight, recovery_cost, predecessors = _position_tables(
            workflow, order
        )
        predecessors = [tuple(sorted(p)) for p in predecessors]
        self.position = position
        self.weight = weight
        self.recovery_cost = recovery_cost
        self.predecessors = predecessors
        self.candidates = _candidate_lists(n, predecessors)
        self.cand_len = np.asarray([len(c) for c in self.candidates], dtype=np.intp)
        self.m_max = max((len(c) for c in self.candidates), default=0)
        # Masks are padded to whole 64-bit words: the bitwise pipeline runs
        # on uint64 matrices (8x fewer elements than bytes), and the value
        # canon sums over this fixed width.
        self.mask_bytes = ((n + 64) // 64) * 8
        self.mask_words = self.mask_bytes // 8
        self.weights = np.asarray(weight[1:], dtype=np.float64)
        tasks = workflow.tasks
        self.raw_ckpt_costs = np.fromiter(
            (tasks[t].checkpoint_cost for t in order), dtype=np.float64, count=n
        )
        charge = np.zeros(8 * self.mask_bytes)
        charge[1 : n + 1] = weight[1:]
        self.charge_template = charge
        # All-positive charges mean a non-empty visited set can never sum to
        # zero, so the refill can skip the structural-zero filter.
        self.charge_positive = (
            min(weight[1:], default=1.0) > 0.0
            and min(recovery_cost[1:], default=1.0) > 0.0
        )
        # Candidates whose predecessor list straddles k need their frontier
        # truncated below k at fill time; multi-predecessor positions get a
        # block of prefix-closure rows in the per-state flat table.
        pfbase = [-1] * (n + 1)
        pf_rows = 0
        pred_arrays: dict[int, Any] = {}
        for i in range(1, n + 1):
            preds = predecessors[i]
            if len(preds) >= 2:
                pfbase[i] = pf_rows
                pf_rows += len(preds)
                pred_arrays[i] = np.asarray(preds, dtype=np.intp)
        self.pfbase = pfbase
        self.pred_arrays = pred_arrays
        self.pf_rows = pf_rows
        self.cand_pad = None
        self.trunc_dst = None
        self.trunc_src = None
        self.cand_ptr = None
        self.cand_idx = None
        self.pred_ptr = None
        self.pred_idx = None
        self.cand_total = 0
        self.row_reach = None
        self.desc = None

    def ensure_numpy_fill(self) -> None:
        """Build the padded-candidate / truncation tables the numpy fill reads."""
        if self.cand_pad is not None:
            return
        n = self.n
        cand_pad = np.zeros((n + 2, self.m_max), dtype=np.intp)
        for k in range(1, n + 1):
            row = self.candidates[k]
            if row:
                cand_pad[k, : len(row)] = row
        trunc_dst: list[Any] = [None] * (n + 1)
        trunc_src: list[Any] = [None] * (n + 1)
        pfbase = self.pfbase
        for k in range(1, n + 1):
            dst: list[int] = []
            src: list[int] = []
            for slot, i in enumerate(self.candidates[k]):
                preds = self.predecessors[i]
                if preds[-1] >= k:
                    dst.append(slot)
                    src.append(pfbase[i] + bisect_left(preds, k) - 1)
            if dst:
                trunc_dst[k] = np.asarray(dst, dtype=np.intp)
                trunc_src[k] = np.asarray(src, dtype=np.intp)
        self.trunc_dst = trunc_dst
        self.trunc_src = trunc_src
        self.cand_pad = cand_pad

    def ensure_native_fill(self) -> None:
        """Build the CSR candidate / predecessor mirrors the C fill reads."""
        if self.cand_ptr is not None:
            return
        n = self.n
        cand_ptr = np.zeros(len(self.candidates) + 1, dtype=np.int64)
        np.cumsum(self.cand_len, out=cand_ptr[1:])
        total = int(cand_ptr[-1])
        cand_idx = np.fromiter(
            chain.from_iterable(self.candidates), dtype=np.int64, count=total
        )
        pred_len = np.asarray([len(p) for p in self.predecessors], dtype=np.int64)
        pred_ptr = np.zeros(n + 2, dtype=np.int64)
        np.cumsum(pred_len, out=pred_ptr[1:])
        pred_idx = np.fromiter(
            chain.from_iterable(self.predecessors),
            dtype=np.int64,
            count=int(pred_ptr[-1]),
        )
        self.cand_idx = cand_idx
        self.pred_ptr = pred_ptr
        self.pred_idx = pred_idx
        self.cand_total = total
        self.cand_ptr = cand_ptr

    def ensure_delta(self) -> None:
        """Build the ancestor / reachability / descendant delta tables.

        Ancestor bitmasks per position, their transpose (descendants — the
        set whose closures a toggle invalidates), and per-row reachability
        (the positions any Algorithm-1 traversal of row ``k`` could ever
        visit under *any* configuration: the union of the candidates'
        ancestors below ``k``).  A toggle at a position outside
        ``row_reach[k]`` provably cannot change row ``k``.  Python big-int
        bitsets keep this ``O(n * |E| / 64)``; one-shot evaluations skip it
        entirely.
        """
        if self.row_reach is not None:
            return
        n = self.n
        predecessors = self.predecessors
        anc = [0] * (n + 1)
        for i in range(1, n + 1):
            mask = 0
            for j in predecessors[i]:
                mask |= anc[j] | (1 << j)
            anc[i] = mask
        reach = [0] * (n + 1)
        for k in range(1, n + 1):
            row = 0
            for i in self.candidates[k]:
                row |= anc[i]
            reach[k] = row & ((1 << k) - 1)
        succs: list[list[int]] = [[] for _ in range(n + 1)]
        for i in range(1, n + 1):
            for j in predecessors[i]:
                succs[j].append(i)
        desc = [0] * (n + 1)
        for c in range(n, 0, -1):
            mask = 0
            for s in succs[c]:
                mask |= desc[s] | (1 << s)
            desc[c] = mask
        self.desc = desc
        self.row_reach = reach


def _instance_tables(workflow: Workflow, order: tuple[int, ...]) -> _InstanceTables:
    """Return the (cached) shared tables of one validated (workflow, order).

    Validation runs on cache misses only: an entry can only have entered the
    cache through a successful validation of the identical workflow object
    and order tuple.
    """
    key = (id(workflow), order)
    entry = _TABLES_CACHE.get(key)
    if entry is not None and entry.workflow is workflow:
        _TABLES_CACHE[key] = _TABLES_CACHE.pop(key)
        return entry
    # Validate once what Schedule would have validated per candidate.
    if sorted(order) != list(range(workflow.n_tasks)):
        raise ValueError(
            f"order must be a permutation of all task indices 0..{workflow.n_tasks - 1}"
        )
    if not workflow.is_linearization(order):
        raise ValueError("order violates a dependency edge of the workflow")
    entry = _InstanceTables(workflow, order)
    while len(_TABLES_CACHE) >= _TABLES_LRU_ENTRIES:
        _TABLES_CACHE.pop(next(iter(_TABLES_CACHE)))
    _TABLES_CACHE[key] = entry
    return entry


@dataclass
class SweepStats:
    """Work counters of one :class:`SweepState` (cumulative).

    ``fill_seconds`` / ``kernel_seconds`` stay zero unless the state was
    created with ``profile=True`` — the timer calls are kept off the hot path
    by default.  ``kernel_seconds`` covers the vectorized Equation-(1) slab
    *and* the sequential Theorem-3 recursion; everything else (set deltas,
    bookkeeping, result construction) is the caller-visible overhead.
    """

    evaluations: int = 0
    full_recomputes: int = 0
    toggles: int = 0
    rows_refilled: int = 0
    rows_restored: int = 0
    rows_skipped: int = 0
    kernel_positions: int = 0
    fill_seconds: float = 0.0
    kernel_seconds: float = 0.0


class SweepState:
    """Incremental evaluator for many checkpoint sets over one linearization.

    Parameters
    ----------
    workflow, order, platform:
        The instance; ``order`` must be a valid linearization of ``workflow``
        (validated once, not per candidate).
    backend:
        ``"auto"`` / ``"python"`` / ``"numpy"`` / ``"native"`` (or any
        registered backend name); see
        :meth:`repro.core.backend.BackendRegistry.resolve`.  The python
        resolution (and the trivial ``n = 0`` / ``lambda = 0`` cases)
        evaluate each set eagerly through the pure-Python reference —
        exactly what ``batch_evaluate`` always did on that path.  The
        native resolution swaps the Algorithm-1 fill and the Theorem-3
        recursion for the compiled kernels of
        :mod:`repro.core.evaluator_native` while sharing all mask
        maintenance and delta bookkeeping with the numpy engine.
    profile:
        Record wall-clock phase timings in :attr:`stats` (adds two
        ``perf_counter`` calls per evaluation phase; off by default).

    Use :meth:`evaluate` with successive candidate sets; the engine diffs each
    set against the previous one and recomputes only the invalidated suffix.
    Results are bit-for-bit identical to per-candidate evaluation on the same
    backend, so cache keys and downstream comparisons are unaffected.
    """

    def __init__(
        self,
        workflow: Workflow,
        order: Sequence[int],
        platform: Platform,
        *,
        backend: str | None = None,
        profile: bool = False,
    ) -> None:
        self.workflow = workflow
        self.order = tuple(int(i) for i in order)
        self.platform = platform
        self.stats = SweepStats()
        self._profile = bool(profile)
        self._current: frozenset[int] = frozenset()
        self._initialized = False
        self._poisoned = False

        n = len(self.order)
        self._n = n
        lam = platform.failure_rate
        resolved = BACKEND_REGISTRY.resolve(backend, n_tasks=n)
        self.backend = resolved.name
        self._eager = self.backend == "python" or n == 0 or lam == 0.0
        if self._eager:
            return

        # Compiled fill/kernel bindings when the resolved backend provides
        # them (the native backend); None keeps the numpy phases.
        self._kernels = resolved.sweep_kernels()
        self._lam = lam
        self._downtime = platform.downtime
        self._failure_free_work = workflow.total_weight

        # Shared, backend-independent instance tables — validated and built
        # once per (workflow, order), cached across SweepState constructions
        # so one-shot evaluation loops pay only for per-state mutable
        # buffers.  Everything taken from the entry is read-only here.
        tables = _instance_tables(workflow, self.order)
        self._tables = tables
        self._position = tables.position
        self._weight = tables.weight
        self._recovery_cost = tables.recovery_cost
        self._predecessors = tables.predecessors
        self._candidates = tables.candidates
        self._weights = tables.weights
        self._raw_ckpt_costs = tables.raw_ckpt_costs
        self._mask_bytes = tables.mask_bytes
        self._mask_words = tables.mask_words
        self._m_max = tables.m_max
        self._cand_len = tables.cand_len
        self._charge_positive = tables.charge_positive
        self._pfbase = tables.pfbase
        self._pred_arrays = tables.pred_arrays

        # The delta-only tables (ancestor / reachability / descendant
        # bitmasks and the row-content cache) are built lazily on the first
        # *incremental* evaluation — a one-shot evaluation (a sweep of length
        # one) never needs them.  They may already exist on the shared entry
        # from an earlier state.
        self._row_reach: list[int] | None = tables.row_reach
        self._desc: list[int] | None = tables.desc

        self._ckpt_costs = np.zeros(n)
        self._checkpointed = bytearray(n + 1)
        self._ckpt_bits = 0
        self._charge_bits = tables.charge_template.copy()
        if self._kernels is None:
            # Byte-matrix machinery of the numpy fill: the refill gathers
            # every row's candidate frontiers into one 3-D block, patches
            # truncated slots from the prefix-closure table, prefix-ORs
            # along the candidate axis and reads each candidate's freshly
            # visited set as the XOR of consecutive prefix rows — exactly
            # the sequential ``F_i & ~regenerated`` recurrence of
            # Algorithm 1.  Rows are padded to a common width with position
            # 0, whose frontier is the empty mask, so padding slots stay
            # structurally invisible.
            tables.ensure_numpy_fill()
            self._charge_lut = _charge_lut(self._charge_bits)
            self._cand_pad = tables.cand_pad
            self._trunc_dst = tables.trunc_dst
            self._trunc_src = tables.trunc_src
        else:
            # The C fill prices visited bits straight off _charge_bits and
            # re-derives truncated frontiers from the predecessor closures,
            # so the byte-LUT and scatter machinery is numpy-only.  What it
            # does need are CSR mirrors of the candidate / predecessor lists
            # plus per-row compaction buffers (sized for a full fill).
            tables.ensure_native_fill()
            self._charge_lut = None
            self._cand_pad = None
            self._trunc_dst = None
            self._trunc_src = None
            self._cand_ptr = tables.cand_ptr
            self._cand_idx = tables.cand_idx
            self._pred_ptr = tables.pred_ptr
            self._pred_idx = tables.pred_idx
            total = tables.cand_total
            self._out_cols = np.empty(max(total, 1), dtype=np.int64)
            self._out_vals = np.empty(max(total, 1))
            self._out_off = np.empty(n + 1, dtype=np.int64)
            self._out_counts = np.empty(n + 1, dtype=np.int64)
            self._rows_buf = np.empty(n + 1, dtype=np.int64)
        self._fwords = np.zeros((n + 1, self._mask_words), dtype=np.uint64)
        self._cwords = np.zeros((n + 1, self._mask_words), dtype=np.uint64)
        # Fill scratch, grown lazily to the largest chunk actually needed
        # (never the n * m_max worst case — see _refill_rows' chunking).
        self._f3_buf: Any = None
        self._v3_buf: Any = None
        # Per-state prefix-closure rows (config-dependent content; the
        # layout — which block belongs to which position — is fixed by the
        # shared ``pfbase`` / ``pred_arrays``).
        self._pf_flat = np.zeros((tables.pf_rows, self._mask_words), dtype=np.uint64)

        # Traversal masks (big-int mirrors drive the incremental updates);
        # populated for the actual configuration by the first evaluation.
        self._closures = [0] * (n + 1)
        self._frontiers = [0] * (n + 1)

        # loss_t[i, k] = loss[k][i] = W^i_k + R^i_k.  The transposed layout
        # makes both kernel reads (loss_t[i, :i]) and the Equation-(1) slab
        # recompute contiguous.  written[k] tracks the nonzero entries of
        # logical row k so a refill clears exactly what it wrote — never a
        # full-matrix memset.  row_cache[k] remembers recent row contents
        # keyed by the row's *relevant* configuration (checkpoint bits below
        # k that the row can actually see), so probe sweeps restore
        # oscillating rows by copy.
        self._loss_t = np.zeros((n + 1, n + 1))
        # -lam-scaled mirror of loss_t: the numpy Theorem-3 recursion
        # accumulates pre-scaled running sums (one np.exp per position, no
        # per-iteration multiply), exactly like the one-shot kernel.  The C
        # kernel rescales inline, so the mirror is numpy-only.
        self._neg_loss_t = (
            np.zeros((n + 1, n + 1)) if self._kernels is None else None
        )
        self._written: list[Any] = [[] for _ in range(n + 1)]
        self._row_cache: list[dict[int, tuple[Any, Any]]] = [
            {} for _ in range(n + 1)
        ]

        # values_t[i-1, k] = E[X_i | Z^i_k]; col_inf flags saturated columns
        # so the global saturation test stays O(n) per evaluation.  The C
        # kernel computes conditional expectations inline per position (one
        # values-vector scratch, no slab), so both are numpy-only.
        if self._kernels is None:
            self._values_t = np.zeros((n, n + 1))
            self._col_inf = np.zeros(n, dtype=bool)
        else:
            self._values_t = None
            self._col_inf = None
            self._values_buf = np.empty(n)

        # running_hist[i] is the running-prefix-sum vector *after* kernel
        # iteration i (row 0 = the initial zeros).  Writing each iteration's
        # advance into its own row records the resume points for free: a later
        # toggle at position c restarts from running_hist[c - 1] with no
        # copying at all.
        self._running_hist = np.zeros((n + 1, n + 1))
        self._base = np.zeros(n)
        self._base[0] = 1.0
        # The numpy recursion assigns python floats one position at a time;
        # the C kernel writes straight into a float64 vector.  _result treats
        # both uniformly.
        self._expected_times: Any = (
            [0.0] * n if self._kernels is None else np.zeros(n)
        )
        self._probs_buf = np.empty(n)
        self._last_saturated = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_tasks(self) -> int:
        """Number of scheduled tasks."""
        return self._n

    @property
    def current(self) -> frozenset[int]:
        """Checkpoint set of the last evaluation (empty before the first)."""
        return self._current

    @property
    def is_incremental(self) -> bool:
        """Whether deltas are evaluated incrementally (array backends) or eagerly."""
        return not self._eager

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(
        self, selected: Iterable[int], *, keep_task_times: bool = True
    ) -> MakespanEvaluation:
        """Evaluate one checkpoint set, reusing everything its delta allows.

        Returns the same :class:`~repro.core.evaluator.MakespanEvaluation`
        a fresh ``evaluate_schedule(..., backend=...)`` call would (for
        ``expected_makespan`` and ``expected_task_times``: bit-for-bit).
        With ``keep_task_times=False`` the per-position vector is dropped so
        ranking sweeps retain O(1) floats per candidate.
        """
        selected = frozenset(int(i) for i in selected)
        self.stats.evaluations += 1
        if self._eager:
            from .evaluator import evaluate_schedule

            evaluation = evaluate_schedule(
                Schedule(self.workflow, self.order, selected),
                self.platform,
                backend="python",
            )
            self._current = selected
            self._initialized = True
            if not keep_task_times:
                evaluation = replace(evaluation, expected_task_times=())
            return evaluation

        # Order-free: the list only feeds an emptiness test and a sorted()
        # error message.
        invalid = [i for i in selected if not 0 <= i < self.workflow.n_tasks]  # reprolint: allow[RL004]
        if invalid:
            raise ValueError(
                f"checkpointed contains invalid task indices: {sorted(invalid)}"
            )

        if not self._initialized:
            if self._poisoned:
                self._reset_configuration()
            toggled = sorted(self._position[t] for t in selected)
            pivot = 1
            refill_all = True
        else:
            delta = selected ^ self._current
            if not delta:
                return self._result(keep_task_times)
            toggled = sorted(self._position[t] for t in delta)
            pivot = toggled[0]
            refill_all = False

        # From here until the successful return the internal state is in
        # flux; an exception (KeyboardInterrupt, MemoryError, ...) must not
        # leave a half-updated state serving wrong deltas, so the next
        # evaluation falls back to a full reset + recompute instead.
        self._initialized = False
        self._poisoned = True

        self.stats.toggles += len(toggled)
        checkpointed = self._checkpointed
        for c in toggled:
            now_on = 0 if checkpointed[c] else 1
            checkpointed[c] = now_on
            self._ckpt_bits ^= 1 << c
            self._ckpt_costs[c - 1] = self._raw_ckpt_costs[c - 1] if now_on else 0.0
            self._charge_bits[c] = (
                self._recovery_cost[c] if now_on else self._weight[c]
            )
        # Rebuild the charge-LUT rows of the touched byte positions with the
        # exact expression of ``_charge_lut`` (bit-identical tables); the
        # native fill prices off _charge_bits directly and keeps no LUT.
        if self._charge_lut is not None:
            charge_bits = self._charge_bits
            # Order-free: each iteration rewrites a distinct LUT row.
            for b in {c >> 3 for c in toggled}:  # reprolint: allow[RL004]
                self._charge_lut[b] = (
                    _BYTE_BITS * charge_bits[8 * b : 8 * b + 8]
                ).sum(axis=1)
        if refill_all:
            # First evaluation: derive every traversal mask for the actual
            # configuration in one bulk pass (no descendant tables needed —
            # one-shot evaluations never build them).
            self._rebuild_masks()
        else:
            self._ensure_delta_tables()
            desc = self._desc
            assert desc is not None
            affected = 0
            for c in toggled:
                affected |= (1 << c) | desc[c]
            self._update_masks(affected)

        # Wall-clock reads here (and in the kernel paths below) feed the
        # opt-in profiling stats only -- never a result or a cache key.
        began = time.perf_counter() if self._profile else 0.0  # reprolint: allow[RL003]
        if refill_all:
            self.stats.full_recomputes += 1
            rows: list[int] = list(range(1, self._n + 1))
        else:
            pmask = 0
            for c in toggled:
                pmask |= 1 << c
            reach = self._row_reach
            assert reach is not None
            rows = [k for k in range(pivot + 1, self._n + 1) if reach[k] & pmask]
            self.stats.rows_skipped += (self._n - pivot) - len(rows)
        self._refill_rows(rows)
        if self._profile:
            self.stats.fill_seconds += time.perf_counter() - began  # reprolint: allow[RL003]

        self._run_kernel(pivot)
        self._current = selected
        self._initialized = True
        self._poisoned = False
        return self._result(keep_task_times)

    # ------------------------------------------------------------------
    # Traversal-mask maintenance
    # ------------------------------------------------------------------
    def _update_masks(self, affected: int) -> None:
        """Re-derive the traversal masks of the ``affected`` positions.

        ``affected`` must be closed under descendants (a closure depends on
        the checkpoint states of the position and all its ancestors), and is
        processed in ascending position order so dependencies come first.
        Maintains the big-int ``closures`` / ``frontiers`` together with
        their byte mirrors (``cbytes`` / ``fbytes``) and the prefix-closure
        table rows of every affected multi-predecessor position.
        """
        mask_bytes = self._mask_bytes
        checkpointed = self._checkpointed
        predecessors = self._predecessors
        closures = self._closures
        frontiers = self._frontiers
        fwords = self._fwords
        cwords = self._cwords
        pfbase = self._pfbase
        pf_flat = self._pf_flat
        for p in _iter_bits(affected):
            preds = predecessors[p]
            base = pfbase[p]
            if base >= 0:
                # Prefix-OR the predecessors' closure rows straight into this
                # position's slice of the flat table; the last row is the
                # full frontier.
                block = pf_flat[base : base + len(preds)]
                np.take(cwords, self._pred_arrays[p], axis=0, out=block)
                np.bitwise_or.accumulate(block, axis=0, out=block)
                full = block[len(preds) - 1]
                frontier = int.from_bytes(full.tobytes(), "little")
                if frontier != frontiers[p]:
                    frontiers[p] = frontier
                    fwords[p] = full
            else:
                frontier = 0
                for q in preds:
                    frontier |= closures[q]
                if frontier != frontiers[p]:
                    frontiers[p] = frontier
                    fwords[p] = np.frombuffer(
                        frontier.to_bytes(mask_bytes, "little"), dtype=np.uint64
                    )
            closure = (1 << p) | (0 if checkpointed[p] else frontier)
            if closure != closures[p]:
                closures[p] = closure
                cwords[p] = np.frombuffer(
                    closure.to_bytes(mask_bytes, "little"), dtype=np.uint64
                )

    def _rebuild_masks(self) -> None:
        """Derive every traversal mask for the current configuration.

        The full-rebuild twin of :meth:`_update_masks` (used by the first
        evaluation): the big-int recursion is :func:`_closure_masks`, the
        byte mirrors are flushed in two bulk assignments, and the
        prefix-closure table is then rebuilt vectorized from the flushed
        closure rows.
        """
        n = self._n
        mask_bytes = self._mask_bytes
        closures, frontiers = _closure_masks(
            n, self._predecessors, self._checkpointed
        )
        self._closures = closures
        self._frontiers = frontiers
        f_bytes = bytearray()
        c_bytes = bytearray()
        for p in range(1, n + 1):
            f_bytes += frontiers[p].to_bytes(mask_bytes, "little")
            c_bytes += closures[p].to_bytes(mask_bytes, "little")
        words = self._mask_words
        if n:
            self._fwords[1:] = np.frombuffer(
                bytes(f_bytes), dtype=np.uint64
            ).reshape(n, words)
            self._cwords[1:] = np.frombuffer(
                bytes(c_bytes), dtype=np.uint64
            ).reshape(n, words)
        if self._kernels is not None:
            # The prefix-closure table is only read by the numpy fill's
            # truncation gather (the C fill re-derives truncations from
            # cwords) and by _update_masks, which rewrites any block it
            # reads from the current cwords first — so the bulk rebuild is
            # skipped on the native path.
            return
        cwords = self._cwords
        pf_flat = self._pf_flat
        pfbase = self._pfbase
        for p, preds_arr in self._pred_arrays.items():
            block = pf_flat[pfbase[p] : pfbase[p] + preds_arr.shape[0]]
            np.take(cwords, preds_arr, axis=0, out=block)
            np.bitwise_or.accumulate(block, axis=0, out=block)

    def _ensure_delta_tables(self) -> None:
        """Build (or adopt) the tables only incremental evaluations need.

        The tables are a pure function of the instance, so they live on the
        shared :class:`_InstanceTables` entry (see
        :meth:`_InstanceTables.ensure_delta`) and are adopted by every state
        that evaluates incrementally; one-shot evaluations skip them
        entirely.
        """
        if self._row_reach is not None:
            return
        tables = self._tables
        tables.ensure_delta()
        self._row_reach = tables.row_reach
        self._desc = tables.desc

    def _reset_configuration(self) -> None:
        """Return to the pristine empty-set state after an aborted evaluation.

        An exception inside :meth:`evaluate` can leave the checkpoint flags,
        charge tables and loss matrices mutually inconsistent; everything
        config-dependent is wiped so the following full recompute starts
        from a known-good baseline.  (The per-row content cache survives:
        its entries are keyed by the relevant configuration and remain
        valid.)
        """
        n = self._n
        self._checkpointed[:] = bytes(n + 1)
        self._ckpt_bits = 0
        self._ckpt_costs[:] = 0.0
        self._charge_bits[:] = 0.0
        self._charge_bits[1 : n + 1] = self._weight[1:]
        if self._kernels is None:
            self._charge_lut = _charge_lut(self._charge_bits)
        self._loss_t[:] = 0.0
        if self._neg_loss_t is not None:
            self._neg_loss_t[:] = 0.0
        self._written = [[] for _ in range(n + 1)]
        self._current = frozenset()

    # ------------------------------------------------------------------
    # Algorithm-1 row refill (bulk closure-mask fill, content-cached)
    # ------------------------------------------------------------------
    def _refill_rows(self, rows: list[int]) -> None:
        """Bring the logical loss rows in ``rows`` up to date, in bulk.

        Row content is a pure function of the row's *relevant* configuration
        (the checkpoint bits inside ``row_reach[k]``), so recently seen
        contents are restored by copy from the per-row cache; everything
        else is recomputed in one vectorized pipeline: gather all candidate
        frontiers into a ``(R, M, mask_bytes)`` block, patch the truncated
        ones from the prefix-closure table, prefix-OR along the candidate
        axis, and read each candidate's visited set off as the XOR of
        consecutive prefix rows (``P_j = P_{j-1} | F_j`` makes the fresh
        bits ``P_j ^ P_{j-1}`` — the vectorized ``F_j & ~regenerated``).
        Values come from the shared :func:`_mask_charges` canon, so they do
        not depend on which rows are refilled together; cache restores are
        bitwise exact for the same reason.
        """
        loss_t = self._loss_t
        written = self._written
        ckpt_bits = self._ckpt_bits
        reach = self._row_reach
        caches = self._row_cache

        # Partition into cache hits and misses, collecting every touched
        # row's stale entries for one batched clear (never a full memset).
        # Before the delta tables exist (the initializing full fill) there
        # is no per-row relevant configuration to key the cache on, so
        # every row is a miss and nothing is cached.
        miss_rows: list[int] = []
        miss_cfgs: list[int | None] = []
        hit_cols: list = []
        hit_vals: list = []
        hit_ks: list[int] = []
        hit_lens: list[int] = []
        stale_arrays: list = []
        stale_ks: list[int] = []
        stale_lens: list[int] = []
        for k in rows:
            stale = written[k]
            if len(stale):
                stale_arrays.append(stale)
                stale_ks.append(k)
                stale_lens.append(len(stale))
            if reach is None:
                miss_rows.append(k)
                miss_cfgs.append(None)
                continue
            cfg = ckpt_bits & reach[k]
            cache = caches[k]
            entry = cache.get(cfg)
            if entry is None:
                miss_rows.append(k)
                miss_cfgs.append(cfg)
            else:
                # Re-insert on hit so eviction is LRU: the hot base
                # configuration a probe sweep keeps returning to must not
                # age out behind a stream of one-off probe configurations.
                del cache[cfg]
                cache[cfg] = entry
                cols, vals = entry
                written[k] = cols
                if len(cols):
                    hit_cols.append(cols)
                    hit_vals.append(vals)
                    hit_ks.append(k)
                    hit_lens.append(len(cols))
        neg_loss_t = self._neg_loss_t
        if stale_arrays:
            cat = np.concatenate(stale_arrays)
            rep = np.repeat(
                np.asarray(stale_ks, dtype=np.intp),
                np.asarray(stale_lens, dtype=np.intp),
            )
            loss_t[cat, rep] = 0.0
            if neg_loss_t is not None:
                neg_loss_t[cat, rep] = 0.0
        if hit_cols:
            cat = np.concatenate(hit_cols)
            rep = np.repeat(
                np.asarray(hit_ks, dtype=np.intp),
                np.asarray(hit_lens, dtype=np.intp),
            )
            vals = np.concatenate(hit_vals)
            loss_t[cat, rep] = vals
            if neg_loss_t is not None:
                neg_loss_t[cat, rep] = vals * -self._lam
        self.stats.rows_restored += len(rows) - len(miss_rows)
        self.stats.rows_refilled += len(miss_rows)
        if not miss_rows:
            return

        if not self._m_max:
            empty = np.asarray([], dtype=np.intp)
            for k, cfg in zip(miss_rows, miss_cfgs):
                self._store_row(k, cfg, empty, None)
            return
        if self._kernels is not None:
            # The C fill streams row by row with O(mask) scratch — no
            # chunking needed.
            self._fill_miss_rows_native(miss_rows, miss_cfgs)
            return
        # Bound the scratch footprint: high-fan-out instances can have
        # candidate widths near n, so one monolithic (R, M, words) block
        # would be O(n^2 * M) bytes.  Rows are independent, so the batch is
        # simply split into chunks of bounded byte size; per-row values are
        # grouping-independent by construction (the _mask_charges canon).
        chunk = max(1, _FILL_CHUNK_BYTES // (self._m_max * self._mask_bytes))
        for start in range(0, len(miss_rows), chunk):
            self._fill_miss_rows(
                miss_rows[start : start + chunk],
                miss_cfgs[start : start + chunk],
            )

    def _fill_miss_rows(
        self, miss_rows: list[int], miss_cfgs: list[int | None]
    ) -> None:
        """Recompute one bounded chunk of cache-missed rows vectorized."""
        loss_t = self._loss_t
        neg_loss_t = self._neg_loss_t
        rows_arr = np.asarray(miss_rows, dtype=np.intp)
        n_miss = rows_arr.shape[0]
        width = int(self._cand_len[rows_arr].max())
        empty = rows_arr[:0]
        if width == 0:
            for k, cfg in zip(miss_rows, miss_cfgs):
                self._store_row(k, cfg, empty, None)
            return
        idx = np.take(self._cand_pad[:, :width], rows_arr, axis=0)
        need = n_miss * width
        if self._f3_buf is None or self._f3_buf.shape[0] < need:
            self._f3_buf = np.empty((need, self._mask_words), dtype=np.uint64)
            self._v3_buf = np.empty((need, self._mask_words), dtype=np.uint64)
        frontier_block = self._f3_buf[:need]
        np.take(self._fwords, idx.reshape(-1), axis=0, out=frontier_block)
        acc = frontier_block.reshape(n_miss, width, self._mask_words)
        trunc_rows: list = []
        trunc_slots: list = []
        trunc_srcs: list = []
        trunc_dst = self._trunc_dst
        trunc_src = self._trunc_src
        for local, k in enumerate(miss_rows):
            dst = trunc_dst[k]
            if dst is not None:
                trunc_rows.append(np.full(dst.shape[0], local, dtype=np.intp))
                trunc_slots.append(dst)
                trunc_srcs.append(trunc_src[k])
        if trunc_rows:
            acc[np.concatenate(trunc_rows), np.concatenate(trunc_slots)] = (
                self._pf_flat[np.concatenate(trunc_srcs)]
            )
        np.bitwise_or.accumulate(acc, axis=1, out=acc)
        visited = self._v3_buf[:need].reshape(n_miss, width, self._mask_words)
        visited[:, 0] = acc[:, 0]
        if width > 1:
            np.bitwise_xor(acc[:, 1:], acc[:, :-1], out=visited[:, 1:])
        rowsel, slotsel = np.nonzero(visited.any(axis=2))
        if rowsel.size:
            vals = _mask_charges(
                visited[rowsel, slotsel].view(np.uint8), self._charge_lut
            )
            cols = idx[rowsel, slotsel]
            if not self._charge_positive:
                keep = vals != 0.0
                if not keep.all():
                    vals = vals[keep]
                    cols = cols[keep]
                    rowsel = rowsel[keep]
            ks = rows_arr[rowsel]
            loss_t[cols, ks] = vals
            neg_loss_t[cols, ks] = vals * -self._lam
            bounds = np.searchsorted(rowsel, np.arange(n_miss + 1)).tolist()
            for local, (k, cfg) in enumerate(zip(miss_rows, miss_cfgs)):
                lo = bounds[local]
                hi = bounds[local + 1]
                if lo == hi:
                    self._store_row(k, cfg, empty, None)
                else:
                    self._store_row(k, cfg, cols[lo:hi], vals[lo:hi])
        else:
            for k, cfg in zip(miss_rows, miss_cfgs):
                self._store_row(k, cfg, empty, None)

    def _fill_miss_rows_native(
        self, miss_rows: list[int], miss_cfgs: list[int | None]
    ) -> None:
        """Recompute cache-missed rows through the compiled Algorithm-1 fill.

        The C routine walks the same closure/frontier words as the numpy
        fill (truncated frontiers are re-derived as the OR of the
        predecessors' closures below the row — exactly the prefix the flat
        table stores), prices visited bits in ascending position order off
        ``_charge_bits``, writes nonzero values into ``loss_t`` and compacts
        them into per-row output slices for the shared row bookkeeping.
        Rows are priced independently, so the multithreaded split of large
        fills cannot change any value.
        """
        kernels = self._kernels
        n_rows = len(miss_rows)
        rows = self._rows_buf[:n_rows]
        rows[:] = miss_rows
        off = self._out_off[:n_rows]
        off[0] = 0
        if n_rows > 1:
            np.cumsum(self._cand_len[rows[:-1]], out=off[1:])
        counts = self._out_counts[:n_rows]
        threads = kernels.fill_threads if n_rows >= 128 else 1
        kernels.fill_rows(
            n_rows,
            rows.ctypes.data,
            self._mask_words,
            self._fwords.ctypes.data,
            self._cwords.ctypes.data,
            self._cand_ptr.ctypes.data,
            self._cand_idx.ctypes.data,
            self._pred_ptr.ctypes.data,
            self._pred_idx.ctypes.data,
            self._charge_bits.ctypes.data,
            self._loss_t.ctypes.data,
            self._n + 1,
            self._out_cols.ctypes.data,
            self._out_vals.ctypes.data,
            off.ctypes.data,
            counts.ctypes.data,
            threads,
        )
        # Same bookkeeping _store_row does, inlined to copy each compacted
        # slice exactly once (the shared output buffers are reused by the
        # next fill, so views must not escape).
        out_cols = self._out_cols
        out_vals = self._out_vals
        written = self._written
        caches = self._row_cache
        off_list = off.tolist()
        count_list = counts.tolist()
        for r, (k, cfg) in enumerate(zip(miss_rows, miss_cfgs)):
            lo = off_list[r]
            hi = lo + count_list[r]
            cols = out_cols[lo:hi].copy()
            written[k] = cols
            if cfg is None:
                continue
            cache = caches[k]
            if len(cache) >= _ROW_CACHE_ENTRIES:
                cache.pop(next(iter(cache)))
            cache[cfg] = (cols, out_vals[lo:hi].copy())

    def _store_row(self, k: int, cfg: int | None, cols: Any, vals: Any) -> None:
        """Record a freshly computed row in ``written`` and the row cache.

        ``cfg is None`` (the initializing full fill, before the delta tables
        exist) records the row without caching it.  Cached contents are
        copied out of their batch arrays: a slice view would pin the whole
        chunk's base array for the lifetime of the cache entry.  Copies are
        bitwise identical, so the exactness guarantee is unaffected.
        """
        if cfg is None:
            self._written[k] = cols
            return
        cols = cols.copy()
        if vals is not None:
            vals = vals.copy()
        self._written[k] = cols
        cache = self._row_cache[k]
        if len(cache) >= _ROW_CACHE_ENTRIES:
            cache.pop(next(iter(cache)))
        cache[cfg] = (cols, vals)

    # ------------------------------------------------------------------
    # Theorem-3 kernel: Equation-(1) slab + recursion resumed at the pivot
    # ------------------------------------------------------------------
    def _run_kernel(self, pivot: int) -> None:
        if self._kernels is not None:
            self._run_kernel_native(pivot)
            return
        n = self._n
        lam = self._lam
        began = time.perf_counter() if self._profile else 0.0  # reprolint: allow[RL003]

        # Every value the toggles can change sits in columns i >= pivot of the
        # conditional-expectation matrix (changed loss entries have i >= k >
        # pivot; the changed checkpoint costs are at positions >= pivot), so
        # one slab recompute over rows pivot-1.. of values_t restores the
        # exact state a full one-shot computation would produce.
        lo = pivot
        m0 = lo - 1
        loss_t = self._loss_t
        values_t = self._values_t
        sub = loss_t[lo:, :]
        diagonal = loss_t.diagonal()[1:]
        wc = self._weights[m0:] + self._ckpt_costs[m0:]
        with np.errstate(over="ignore"):
            exposure = lam * (sub + wc[:, None])
            grown = np.expm1(np.minimum(exposure, OVERFLOW_EXPONENT))
            rec_exposure = lam * np.maximum(diagonal[m0:, None] - sub, 0.0)
            slab = np.exp(np.minimum(rec_exposure, OVERFLOW_EXPONENT)) * (
                grown / lam + self._downtime * grown
            )
        overflow = (exposure > OVERFLOW_EXPONENT) | (rec_exposure > OVERFLOW_EXPONENT)
        if overflow.any():
            slab[overflow] = np.inf
        tiny = exposure < _SMALL_EXPOSURE
        if tiny.any():
            failure_free = sub + wc[:, None]
            slab[tiny] = failure_free[tiny]
        values_t[m0:, :] = slab
        self._col_inf[m0:] = np.isinf(slab).any(axis=1)
        saturated = bool(self._col_inf.any())

        # Saturation switches the dot products to their masked form, which
        # changes summation shapes — the stored prefix is only reusable when
        # both the previous and the current run are unsaturated.
        start = lo
        if saturated or self._last_saturated:
            start = 1

        with np.errstate(over="ignore"):
            exponent_bound = lam * float(
                (diagonal + self._weights + self._ckpt_costs).sum()
            )
        may_clip = not exponent_bound <= OVERFLOW_EXPONENT - 1.0

        base = self._base
        running_hist = self._running_hist
        probs_buf = self._probs_buf
        neg_loss_t = self._neg_loss_t
        # Same pre-scaled accumulation as the one-shot kernel: running sums
        # carry -lam * (loss + terms), so each position needs one np.exp.
        neg_terms = (self._weights + self._ckpt_costs) * -lam
        values_t = self._values_t
        expected_times = self._expected_times
        for i in range(start, n + 1):
            m = i - 1
            probs = probs_buf[:i]
            if m:
                prev = running_hist[m][:m]
                head = probs[:m]
                np.exp(prev, out=head)
                head *= base[:m]
                if may_clip:
                    clipped = prev < -OVERFLOW_EXPONENT
                    if clipped.any():
                        head[clipped] = 0.0
                remaining = 1.0 - float(head.sum())
                if remaining < 0.0:
                    remaining = 0.0
                elif remaining > 1.0:
                    remaining = 1.0
            else:
                remaining = 1.0
            probs[m] = remaining
            if i >= 2:
                base[m] = remaining

            column = values_t[m, :i]
            if saturated:
                mask = probs > 0.0
                expected_xi = float(probs[mask] @ column[mask])
            else:
                expected_xi = float(probs @ column)
            expected_times[m] = expected_xi

            # Advance into this iteration's own history row: entries [i:] of
            # row i are never written, so they hold the zeros a fresh kernel
            # would see, and row i-1 doubles as the resume snapshot.
            cur = running_hist[i]
            np.add(running_hist[m][:i], neg_loss_t[i, :i], out=cur[:i])
            cur[:i] += neg_terms[m]

        self._last_saturated = saturated
        self.stats.kernel_positions += n + 1 - start
        if self._profile:
            self.stats.kernel_seconds += time.perf_counter() - began  # reprolint: allow[RL003]

    def _run_kernel_native(self, pivot: int) -> None:
        """Resume the compiled Theorem-3 recursion at the pivot.

        The C kernel always skips zero-probability events in its dot
        products — bit-identical to summing their ``+0.0`` contributions
        when unsaturated, and exactly the masked sum when saturated — so
        unlike the numpy kernel there is no saturated-regime restart: the
        stored running-sum prefix is resumable unconditionally.
        """
        n = self._n
        began = time.perf_counter() if self._profile else 0.0  # reprolint: allow[RL003]
        self._kernels.theorem3_kernel(
            n,
            pivot,
            self._loss_t.ctypes.data,
            n + 1,
            self._weights.ctypes.data,
            self._ckpt_costs.ctypes.data,
            self._lam,
            self._downtime,
            self._running_hist.ctypes.data,
            self._base.ctypes.data,
            self._expected_times.ctypes.data,
            self._probs_buf.ctypes.data,
            self._values_buf.ctypes.data,
        )
        self.stats.kernel_positions += n + 1 - pivot
        if self._profile:
            self.stats.kernel_seconds += time.perf_counter() - began  # reprolint: allow[RL003]

    def _result(self, keep_task_times: bool) -> MakespanEvaluation:
        expected_times = self._expected_times
        return MakespanEvaluation(
            expected_makespan=math.fsum(expected_times),
            expected_task_times=(
                tuple(map(float, expected_times)) if keep_task_times else ()
            ),
            failure_free_makespan=(
                self._failure_free_work + float(self._ckpt_costs.sum())
            ),
            failure_free_work=self._failure_free_work,
        )


def batch_evaluate(
    workflow: Workflow,
    order: Sequence[int],
    checkpoint_sets: Iterable[Iterable[int]],
    platform: Platform,
    *,
    backend: str | None = None,
    keep_task_times: bool = True,
) -> list[MakespanEvaluation]:
    """Score many checkpoint sets over one fixed linearization.

    This is the sweep primitive behind the checkpoint-count search and the
    refinement local moves: every candidate shares the same workflow and
    ``order``, so the position / predecessor / candidate tables (and the
    order's linearization check) are derived once instead of per candidate.

    Parameters
    ----------
    workflow, order, platform:
        The instance; ``order`` must be a valid linearization of ``workflow``.
    checkpoint_sets:
        Iterable of checkpoint sets (task indices).  One
        :class:`~repro.core.evaluator.MakespanEvaluation` is returned per
        set, in input order.
    backend:
        ``"auto"`` / ``"python"`` / ``"numpy"`` / ``"native"``; see
        :meth:`repro.core.backend.BackendRegistry.resolve`.  The Python path
        simply evaluates one :class:`~repro.core.schedule.Schedule` per set
        and is the reference the array backends are tested against.
    keep_task_times:
        When ``False``, the returned evaluations carry an empty
        ``expected_task_times`` tuple.  Sweeps that only rank candidates by
        ``expected_makespan`` (the count search, refinement toggles) pass
        ``False`` so a batch of ``n`` candidates costs O(n) rather than
        O(n^2) retained floats; re-evaluate the winner for the full vector.
    """
    order = tuple(int(i) for i in order)
    sets = [frozenset(int(i) for i in selected) for selected in checkpoint_sets]
    state = SweepState(workflow, order, platform, backend=backend)
    if state.is_incremental:
        # Validate every set up front (the incremental path otherwise raises
        # mid-batch, after earlier sets were already evaluated).
        for selected in sets:
            invalid = [i for i in selected if not 0 <= i < workflow.n_tasks]
            if invalid:
                raise ValueError(
                    f"checkpointed contains invalid task indices: {sorted(invalid)}"
                )
    return [
        state.evaluate(selected, keep_task_times=keep_task_times) for selected in sets
    ]
