"""Evolving bug dependency graph (BDG).

Nodes are open bugs, arcs point from a blocking bug to the bug it
blocks.  The graph stays acyclic: arc events that would close a loop
are dropped (historical data noise) and logged.  Resolving a bug
removes the node with all incident arcs, so arcs never reference
resolved blockers.
"""

from __future__ import annotations

import heapq
import logging
from dataclasses import dataclass, field

from .errors import ValidationError

log = logging.getLogger(__name__)

OPEN = "OPEN"
ADD_ARC = "ADD_ARC"
REMOVE_ARC = "REMOVE_ARC"
RESOLVE = "RESOLVE"


def topological_order(children, key=None) -> list:
    """Nodes with every blocker before the nodes it blocks (Kahn).

    ``children`` maps each node to the nodes it blocks, each of which is
    a key as well.  Among ready nodes the smallest ``key(node)`` goes
    first, or the smallest node when there is no key.  Nodes on a cycle,
    or below one, never become ready and are left out.  The solver and
    the DABT pool order bugs with this; ``is_acyclic`` counts it.
    """
    rank = key or (lambda node: node)
    waiting = dict.fromkeys(children, 0)
    for kids in children.values():
        for kid in kids:
            waiting[kid] += 1
    ready = [(rank(node), node) for node, k in waiting.items() if k == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        node = heapq.heappop(ready)[1]
        order.append(node)
        for kid in children[node]:
            waiting[kid] -= 1
            if waiting[kid] == 0:
                heapq.heappush(ready, (rank(kid), kid))
    return order


@dataclass(frozen=True)
class GraphMetrics:
    mean_depth: float
    mean_degree: float
    n_nodes: int
    n_arcs: int


@dataclass
class DependencyGraph:
    children: dict = field(default_factory=dict)  # blocker -> set of blocked
    parents: dict = field(default_factory=dict)  # blocked -> set of blockers
    resolved: set = field(default_factory=set)
    rejected_arcs: list = field(default_factory=list)

    def _ensure_node(self, bug: int) -> None:
        if bug in self.resolved:
            return
        self.children.setdefault(bug, set())
        self.parents.setdefault(bug, set())

    def _reaches(self, start: int, target: int) -> bool:
        stack = [start]
        seen = set()
        while stack:
            node = stack.pop()
            if node == target:
                return True
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self.children.get(node, ()))
        return False

    def apply_event(self, kind: str, bug: int, other: int | None = None) -> None:
        """Apply OPEN/ADD_ARC/REMOVE_ARC/RESOLVE.

        ADD_ARC(bug, other) adds the arc bug -> other (bug blocks
        other), auto-opening unknown endpoints; a cycle-creating arc is
        dropped and logged.  Arcs touching resolved bugs are ignored.
        """
        if kind == OPEN:
            self._ensure_node(bug)
        elif kind == RESOLVE:
            self.resolve(bug)
        elif kind == ADD_ARC:
            if bug in self.resolved or other in self.resolved:
                return
            self._ensure_node(bug)
            self._ensure_node(other)
            if bug == other or self._reaches(other, bug):
                self.rejected_arcs.append((bug, other))
                log.warning("dropping cycle-creating arc %s -> %s", bug, other)
                return
            self.children[bug].add(other)
            self.parents[other].add(bug)
        elif kind == REMOVE_ARC:
            if bug in self.children:
                self.children[bug].discard(other)
            if other in self.parents:
                self.parents[other].discard(bug)
        else:
            raise ValidationError(f"unknown graph event kind {kind!r}")

    def resolve(self, bug: int) -> None:
        if bug not in self.children:
            self.resolved.add(bug)
            return
        for child in self.children.pop(bug):
            self.parents[child].discard(bug)
        for parent in self.parents.pop(bug):
            self.children[parent].discard(bug)
        self.resolved.add(bug)

    def is_acyclic(self) -> bool:
        """Full topological-sort check."""
        return len(topological_order(self.children)) == len(self.children)

    def metrics_snapshot(self) -> GraphMetrics:
        """Mean depth and mean degree over open nodes; zeros when empty.

        A node's depth is the longest chain of unresolved blockers above
        it: 0 without blockers, else 1 + the deepest blocker's depth, which
        is its layer in one Kahn pass that also counts arcs: O(V + E).
        mean_degree = |arcs| / |nodes| (half the mean incident degree).
        """
        n = len(self.children)
        if n == 0:
            return GraphMetrics(0.0, 0.0, 0, 0)
        waiting = {node: len(ps) for node, ps in self.parents.items()}
        layer = [node for node, k in waiting.items() if not k]
        arcs = total_depth = depth = 0
        while layer:  # a node is ready one layer below its deepest blocker
            total_depth += depth * len(layer)
            depth, below = depth + 1, []
            for node in layer:
                kids = self.children[node]
                arcs += len(kids)
                for kid in kids:
                    waiting[kid] -= 1
                    if not waiting[kid]:
                        below.append(kid)
            layer = below
        return GraphMetrics(total_depth / n, arcs / n, n, arcs)
