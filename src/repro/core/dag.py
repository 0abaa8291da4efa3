"""Workflow DAG container.

The :class:`Workflow` class is the central data structure of the library.  It
stores an immutable directed acyclic graph of :class:`~repro.core.task.Task`
objects plus precomputed adjacency used by every scheduling algorithm.

Design notes
------------
* Tasks are identified by dense integer indices ``0 .. n-1``.  Edges are pairs
  of indices ``(u, v)`` meaning "``v`` consumes the output of ``u``".
* The class is intentionally light: it is a plain-Python adjacency structure
  (tuples of ints) rather than a :mod:`networkx` graph so that the hot loops of
  the makespan evaluator never pay attribute-lookup costs.  Conversion helpers
  to/from :mod:`networkx` are provided for interoperability; networkx is an
  optional extra (``pip install repro-workflows[networkx]``) imported only
  inside them.
* Workflows are immutable.  Derived workflows (e.g. with different checkpoint
  costs) are produced by :meth:`Workflow.with_checkpoint_costs` /
  :meth:`Workflow.replace_tasks`, which return new instances.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Sequence

from .task import Task

if TYPE_CHECKING:  # pragma: no cover - networkx is an optional extra
    import networkx as nx

__all__ = ["Workflow", "WorkflowStructure", "CycleError"]


class CycleError(ValueError):
    """Raised when the provided edges do not form a DAG."""


class WorkflowStructure(enum.Enum):
    """Coarse structural classification used by the theory modules."""

    EMPTY = "empty"
    SINGLE = "single"
    CHAIN = "chain"
    FORK = "fork"
    JOIN = "join"
    GENERAL = "general"


class Workflow:
    """An immutable DAG of tasks.

    Parameters
    ----------
    tasks:
        Sequence of :class:`Task`.  Task ``i`` must have ``index == i``.
    edges:
        Iterable of ``(u, v)`` pairs with ``0 <= u, v < n`` and ``u != v``.
        Duplicate edges are collapsed.
    name:
        Optional workflow label (e.g. ``"montage-100"``).
    """

    __slots__ = (
        "_tasks",
        "_succ",
        "_pred",
        "_edges",
        "_name",
        "_topo_cache",
        "_outweights",
    )

    def __init__(
        self,
        tasks: Sequence[Task],
        edges: Iterable[tuple[int, int]] = (),
        *,
        name: str = "workflow",
    ) -> None:
        tasks = tuple(tasks)
        n = len(tasks)
        for position, task in enumerate(tasks):
            if not isinstance(task, Task):
                raise TypeError(f"tasks[{position}] is not a Task: {task!r}")
            if task.index != position:
                raise ValueError(
                    f"task at position {position} has index {task.index}; "
                    "tasks must be supplied in index order"
                )
        succ: list[set[int]] = [set() for _ in range(n)]
        pred: list[set[int]] = [set() for _ in range(n)]
        edge_set: set[tuple[int, int]] = set()
        for edge in edges:
            try:
                u, v = edge
            except (TypeError, ValueError) as exc:
                raise TypeError(f"edge {edge!r} is not a pair") from exc
            u = int(u)
            v = int(v)
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) references a task outside 0..{n - 1}")
            if u == v:
                raise ValueError(f"self loop on task {u} is not allowed")
            if (u, v) in edge_set:
                continue
            edge_set.add((u, v))
            succ[u].add(v)
            pred[v].add(u)

        self._tasks: tuple[Task, ...] = tasks
        self._succ: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(s)) for s in succ)
        self._pred: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(p)) for p in pred)
        self._edges: tuple[tuple[int, int], ...] = tuple(sorted(edge_set))
        self._name = str(name)
        self._topo_cache: tuple[int, ...] | None = None
        self._outweights: tuple[float, ...] | None = None
        # Validate acyclicity once at construction time.
        self._compute_topological_order()

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Workflow label."""
        return self._name

    @property
    def n_tasks(self) -> int:
        """Number of tasks (``n`` in the paper)."""
        return len(self._tasks)

    @property
    def n_edges(self) -> int:
        """Number of dependency edges."""
        return len(self._edges)

    @property
    def tasks(self) -> tuple[Task, ...]:
        """All tasks, ordered by index."""
        return self._tasks

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """All edges as sorted ``(u, v)`` tuples."""
        return self._edges

    def task(self, index: int) -> Task:
        """Return the task with the given index."""
        return self._tasks[self._check_index(index)]

    def __len__(self) -> int:
        return len(self._tasks)

    def __iter__(self) -> Iterator[Task]:
        return iter(self._tasks)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (
            f"Workflow(name={self._name!r}, n_tasks={self.n_tasks}, "
            f"n_edges={self.n_edges})"
        )

    def _check_index(self, index: int) -> int:
        if not isinstance(index, int) or isinstance(index, bool):
            raise TypeError(f"task index must be an int, got {index!r}")
        if not 0 <= index < self.n_tasks:
            raise IndexError(f"task index {index} outside 0..{self.n_tasks - 1}")
        return index

    # ------------------------------------------------------------------
    # Graph structure
    # ------------------------------------------------------------------
    def successors(self, index: int) -> tuple[int, ...]:
        """Direct successors (consumers of the task's output)."""
        return self._succ[self._check_index(index)]

    def predecessors(self, index: int) -> tuple[int, ...]:
        """Direct predecessors (producers of the task's inputs)."""
        return self._pred[self._check_index(index)]

    @property
    def sources(self) -> tuple[int, ...]:
        """Entry tasks (no predecessors)."""
        return tuple(i for i in range(self.n_tasks) if not self._pred[i])

    @property
    def sinks(self) -> tuple[int, ...]:
        """Exit tasks (no successors)."""
        return tuple(i for i in range(self.n_tasks) if not self._succ[i])

    def in_degree(self, index: int) -> int:
        """Number of direct predecessors."""
        return len(self.predecessors(index))

    def out_degree(self, index: int) -> int:
        """Number of direct successors."""
        return len(self.successors(index))

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the dependency ``u -> v`` exists."""
        return v in self._succ[self._check_index(u)]

    def ancestors(self, index: int) -> frozenset[int]:
        """All transitive predecessors of a task."""
        seen: set[int] = set()
        stack = list(self.predecessors(index))
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self._pred[node])
        return frozenset(seen)

    def descendants(self, index: int) -> frozenset[int]:
        """All transitive successors of a task."""
        seen: set[int] = set()
        stack = list(self.successors(index))
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self._succ[node])
        return frozenset(seen)

    def _compute_topological_order(self) -> tuple[int, ...]:
        if self._topo_cache is not None:
            return self._topo_cache
        n = self.n_tasks
        in_deg = [len(self._pred[i]) for i in range(n)]
        ready = [i for i in range(n) if in_deg[i] == 0]
        ready.sort(reverse=True)
        order: list[int] = []
        while ready:
            node = ready.pop()
            order.append(node)
            for succ in self._succ[node]:
                in_deg[succ] -= 1
                if in_deg[succ] == 0:
                    ready.append(succ)
            ready.sort(reverse=True)
        if len(order) != n:
            raise CycleError("the provided edges contain a cycle")
        self._topo_cache = tuple(order)
        return self._topo_cache

    def topological_order(self) -> tuple[int, ...]:
        """A deterministic (smallest-index-first) topological order."""
        return self._compute_topological_order()

    def is_linearization(self, order: Sequence[int]) -> bool:
        """Whether ``order`` is a permutation of all tasks respecting all edges."""
        order = tuple(order)
        if sorted(order) != list(range(self.n_tasks)):
            return False
        position = {task: pos for pos, task in enumerate(order)}
        return all(position[u] < position[v] for u, v in self._edges)

    # ------------------------------------------------------------------
    # Weights and priorities
    # ------------------------------------------------------------------
    @property
    def total_weight(self) -> float:
        """Failure-free total computation time :math:`\\sum_i w_i`."""
        return sum(task.weight for task in self._tasks)

    def outweight(self, index: int) -> float:
        """Sum of the weights of the direct successors of a task.

        This is the priority used by the DF / BF linearizations and by the
        ``CkptD`` checkpointing strategy (the paper's :math:`d_i`).
        """
        return self.outweights()[self._check_index(index)]

    def outweights(self) -> tuple[float, ...]:
        """:meth:`outweight` of every task, by task index (computed once)."""
        if self._outweights is None:
            tasks = self._tasks
            self._outweights = tuple(
                sum(tasks[s].weight for s in succ) for succ in self._succ
            )
        return self._outweights

    def descendant_weight(self, index: int) -> float:
        """Sum of the weights of all transitive successors of a task."""
        return sum(self._tasks[d].weight for d in self.descendants(index))

    def critical_path_length(self) -> float:
        """Length (in seconds of work) of the heaviest path in the DAG."""
        longest = [0.0] * self.n_tasks
        for node in self.topological_order():
            preds = self._pred[node]
            base = max((longest[p] for p in preds), default=0.0)
            longest[node] = base + self._tasks[node].weight
        return max(longest, default=0.0)

    # ------------------------------------------------------------------
    # Structure classification
    # ------------------------------------------------------------------
    def structure(self) -> WorkflowStructure:
        """Classify the DAG as chain / fork / join / general.

        The classification matches the special cases studied in Section 4 of the
        paper: a *fork* has a single source and every other task is a sink
        depending only on that source; a *join* has a single sink and every other
        task is a source feeding only that sink.
        """
        n = self.n_tasks
        if n == 0:
            return WorkflowStructure.EMPTY
        if n == 1:
            return WorkflowStructure.SINGLE
        if self.is_chain():
            return WorkflowStructure.CHAIN
        if self.is_fork():
            return WorkflowStructure.FORK
        if self.is_join():
            return WorkflowStructure.JOIN
        return WorkflowStructure.GENERAL

    def is_chain(self) -> bool:
        """Whether the DAG is a single linear chain."""
        if self.n_tasks <= 1:
            return self.n_tasks == 1
        if self.n_edges != self.n_tasks - 1:
            return False
        return all(self.in_degree(i) <= 1 and self.out_degree(i) <= 1 for i in range(self.n_tasks))

    def is_fork(self) -> bool:
        """Whether the DAG is a fork: one source, all other tasks depend only on it."""
        if self.n_tasks < 2:
            return False
        sources = self.sources
        if len(sources) != 1:
            return False
        src = sources[0]
        others = [i for i in range(self.n_tasks) if i != src]
        return all(self._pred[i] == (src,) and not self._succ[i] for i in others)

    def is_join(self) -> bool:
        """Whether the DAG is a join: one sink, all other tasks feed only into it."""
        if self.n_tasks < 2:
            return False
        sinks = self.sinks
        if len(sinks) != 1:
            return False
        sink = sinks[0]
        others = [i for i in range(self.n_tasks) if i != sink]
        return all(self._succ[i] == (sink,) and not self._pred[i] for i in others)

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def replace_tasks(self, tasks: Sequence[Task], *, name: str | None = None) -> "Workflow":
        """Return a new workflow with the same edges but different tasks."""
        if len(tasks) != self.n_tasks:
            raise ValueError(
                f"expected {self.n_tasks} tasks, got {len(tasks)}"
            )
        return Workflow(tasks, self._edges, name=self._name if name is None else name)

    def map_tasks(self, transform: Callable[[Task], Task], *, name: str | None = None) -> "Workflow":
        """Return a new workflow with every task replaced by ``transform(task)``."""
        new_tasks = []
        for task in self._tasks:
            new_task = transform(task)
            if new_task.index != task.index:
                raise ValueError("transform must preserve task indices")
            new_tasks.append(new_task)
        return self.replace_tasks(new_tasks, name=name)

    def with_checkpoint_costs(
        self,
        *,
        mode: str = "proportional",
        factor: float = 0.1,
        value: float = 0.0,
        recovery: str = "equal",
        name: str | None = None,
    ) -> "Workflow":
        """Return a copy with checkpoint / recovery costs assigned.

        Parameters
        ----------
        mode:
            ``"proportional"`` sets :math:`c_i = factor \\cdot w_i` (the paper's
            main setting with ``factor`` = 0.1 or 0.01); ``"constant"`` sets
            :math:`c_i = value` for every task (Figures 4 and 6).
        factor:
            Proportionality constant for ``mode="proportional"``.
        value:
            Constant checkpoint cost for ``mode="constant"``.
        recovery:
            ``"equal"`` sets :math:`r_i = c_i` (the paper's experimental setting);
            ``"zero"`` sets :math:`r_i = 0` (Corollary 2 regime).
        """
        if mode not in ("proportional", "constant"):
            raise ValueError(f"unknown checkpoint cost mode {mode!r}")
        if recovery not in ("equal", "zero"):
            raise ValueError(f"unknown recovery mode {recovery!r}")
        if mode == "proportional" and factor < 0:
            raise ValueError("factor must be non-negative")
        if mode == "constant" and value < 0:
            raise ValueError("value must be non-negative")

        def _assign(task: Task) -> Task:
            cost = factor * task.weight if mode == "proportional" else value
            rec = cost if recovery == "equal" else 0.0
            return task.with_costs(checkpoint_cost=cost, recovery_cost=rec)

        return self.map_tasks(_assign, name=name)

    # ------------------------------------------------------------------
    # Interop
    # ------------------------------------------------------------------
    def to_networkx(self) -> nx.DiGraph:
        """Convert to a :class:`networkx.DiGraph` with task attributes."""
        import networkx as nx

        graph = nx.DiGraph(name=self._name)
        for task in self._tasks:
            graph.add_node(
                task.index,
                weight=task.weight,
                checkpoint_cost=task.checkpoint_cost,
                recovery_cost=task.recovery_cost,
                name=task.name,
                category=task.category,
            )
        graph.add_edges_from(self._edges)
        return graph

    @classmethod
    def from_networkx(cls, graph: nx.DiGraph, *, name: str | None = None) -> "Workflow":
        """Build a workflow from a :class:`networkx.DiGraph`.

        Node labels may be arbitrary hashables; they are relabelled to dense
        indices following a deterministic topological order of the input graph.
        Node attributes ``weight``, ``checkpoint_cost``, ``recovery_cost``,
        ``name`` and ``category`` are honoured when present.
        """
        import networkx as nx

        if not isinstance(graph, nx.DiGraph):
            raise TypeError("expected a networkx.DiGraph")
        if not nx.is_directed_acyclic_graph(graph):
            raise CycleError("input graph has a cycle")
        ordering = list(nx.lexicographical_topological_sort(graph, key=str))
        relabel = {node: i for i, node in enumerate(ordering)}
        tasks = []
        for node in ordering:
            data: Mapping = graph.nodes[node]
            tasks.append(
                Task(
                    index=relabel[node],
                    weight=float(data.get("weight", 1.0)),
                    checkpoint_cost=float(data.get("checkpoint_cost", 0.0)),
                    recovery_cost=float(data.get("recovery_cost", 0.0)),
                    name=str(data.get("name", f"T{relabel[node]}")),
                    category=str(data.get("category", "")),
                )
            )
        edges = [(relabel[u], relabel[v]) for u, v in graph.edges]
        return cls(tasks, edges, name=name or str(graph.graph.get("name", "workflow")))

    # ------------------------------------------------------------------
    # Equality (useful in tests and serialization round-trips)
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Workflow):
            return NotImplemented
        return self._tasks == other._tasks and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self._tasks, self._edges))
