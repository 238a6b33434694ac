"""Disjoint-set (union-find) with union by rank and path compression.

Used by Kruskal's algorithm, by the GHS fragment-merge bookkeeping on the
simulator side, and by the percolation cluster labeler.  Amortised cost per
operation is O(alpha(n)) (inverse Ackermann), effectively constant.
"""

from __future__ import annotations

from typing import Iterator


class UnionFind:
    """Disjoint sets over the integers ``0 .. n-1``.

    Parameters
    ----------
    n:
        Number of elements.  Each starts in its own singleton set.

    Examples
    --------
    >>> uf = UnionFind(4)
    >>> uf.union(0, 1)
    True
    >>> uf.connected(0, 1)
    True
    >>> uf.n_components
    3
    """

    __slots__ = ("_parent", "_rank", "_size", "_n_components")

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        self._parent = list(range(n))
        self._rank = [0] * n
        self._size = [1] * n
        self._n_components = n

    def __len__(self) -> int:
        return len(self._parent)

    @property
    def n_components(self) -> int:
        """Number of disjoint sets currently present."""
        return self._n_components

    def find(self, x: int) -> int:
        """Return the canonical representative of ``x``'s set."""
        parent = self._parent
        root = x
        while parent[root] != root:
            root = parent[root]
        # Path compression: point every node on the path at the root.
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        """Merge the sets containing ``a`` and ``b``.

        Returns ``True`` if a merge happened, ``False`` if they were already
        in the same set.
        """
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        rank = self._rank
        if rank[ra] < rank[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]
        if rank[ra] == rank[rb]:
            rank[ra] += 1
        self._n_components -= 1
        return True

    def connected(self, a: int, b: int) -> bool:
        """``True`` iff ``a`` and ``b`` are in the same set."""
        return self.find(a) == self.find(b)

    def component_size(self, x: int) -> int:
        """Size of the set containing ``x``."""
        return self._size[self.find(x)]

    def roots(self) -> Iterator[int]:
        """Iterate over the canonical representative of every set."""
        for i in range(len(self._parent)):
            if self.find(i) == i:
                yield i

    def components(self) -> dict[int, list[int]]:
        """Return ``{root: sorted list of members}`` for every set."""
        groups: dict[int, list[int]] = {}
        for i in range(len(self._parent)):
            groups.setdefault(self.find(i), []).append(i)
        return groups

    def largest_component(self) -> list[int]:
        """Members of the largest set (ties broken by smallest root)."""
        if not self._parent:
            return []
        comps = self.components()
        best_root = max(sorted(comps), key=lambda r: len(comps[r]))
        return comps[best_root]
