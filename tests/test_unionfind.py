"""Unit and property tests for the union-find structure."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.ds.unionfind import UnionFind


class TestBasics:
    def test_initial_singletons(self):
        uf = UnionFind(5)
        assert uf.n_components == 5
        assert len(uf) == 5
        for i in range(5):
            assert uf.find(i) == i
            assert uf.component_size(i) == 1

    def test_union_merges(self):
        uf = UnionFind(4)
        assert uf.union(0, 1) is True
        assert uf.connected(0, 1)
        assert not uf.connected(0, 2)
        assert uf.n_components == 3

    def test_union_idempotent(self):
        uf = UnionFind(4)
        uf.union(0, 1)
        assert uf.union(1, 0) is False
        assert uf.n_components == 3

    def test_component_size_grows(self):
        uf = UnionFind(6)
        uf.union(0, 1)
        uf.union(1, 2)
        assert uf.component_size(0) == 3
        assert uf.component_size(2) == 3
        assert uf.component_size(3) == 1

    def test_transitivity(self):
        uf = UnionFind(10)
        uf.union(0, 1)
        uf.union(2, 3)
        uf.union(1, 3)
        assert uf.connected(0, 2)

    def test_zero_elements(self):
        uf = UnionFind(0)
        assert uf.n_components == 0
        assert list(uf.roots()) == []
        assert uf.largest_component() == []

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            UnionFind(-1)

    def test_roots_unique_per_component(self):
        uf = UnionFind(6)
        uf.union(0, 1)
        uf.union(2, 3)
        roots = list(uf.roots())
        assert len(roots) == 4
        assert len(set(roots)) == 4

    def test_components_partition(self):
        uf = UnionFind(7)
        uf.union(0, 1)
        uf.union(5, 6)
        comps = uf.components()
        members = sorted(x for group in comps.values() for x in group)
        assert members == list(range(7))

    def test_largest_component(self):
        uf = UnionFind(6)
        uf.union(0, 1)
        uf.union(1, 2)
        uf.union(4, 5)
        assert uf.largest_component() == [0, 1, 2]


class TestProperties:
    @given(
        st.integers(min_value=1, max_value=50),
        st.lists(st.tuples(st.integers(0, 49), st.integers(0, 49)), max_size=100),
    )
    def test_component_count_invariant(self, n, pairs):
        """n_components always equals n minus the number of effective merges."""
        uf = UnionFind(n)
        merges = 0
        for a, b in pairs:
            if a < n and b < n:
                if uf.union(a, b):
                    merges += 1
        assert uf.n_components == n - merges

    @given(
        st.integers(min_value=2, max_value=40),
        st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=80),
    )
    def test_find_is_canonical(self, n, pairs):
        """All members of a component share one representative."""
        uf = UnionFind(n)
        for a, b in pairs:
            if a < n and b < n:
                uf.union(a, b)
        for root, members in uf.components().items():
            assert all(uf.find(m) == root for m in members)

    @given(
        st.integers(min_value=1, max_value=40),
        st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=80),
    )
    def test_sizes_sum_to_n(self, n, pairs):
        uf = UnionFind(n)
        for a, b in pairs:
            if a < n and b < n:
                uf.union(a, b)
        total = sum(uf.component_size(r) for r in uf.roots())
        assert total == n

    @given(st.lists(st.tuples(st.integers(0, 19), st.integers(0, 19)), max_size=60))
    def test_connectivity_matches_graph_reachability(self, pairs):
        """union-find connectivity agrees with BFS reachability."""
        n = 20
        uf = UnionFind(n)
        adj = {i: set() for i in range(n)}
        for a, b in pairs:
            uf.union(a, b)
            adj[a].add(b)
            adj[b].add(a)

        def reachable(s):
            seen = {s}
            stack = [s]
            while stack:
                u = stack.pop()
                for v in adj[u]:
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
            return seen

        comp0 = reachable(0)
        for v in range(n):
            assert uf.connected(0, v) == (v in comp0)
