"""Output checks written independently of the library's own algorithms."""

from __future__ import annotations

import itertools


def _adjacency(vertices, edges, removed=None) -> dict:
    adj = {v: set() for v in vertices if v != removed}
    for u, v, _ in edges:
        if u != v and u in adj and v in adj:
            adj[u].add(v)
            adj[v].add(u)
    return adj


def component_count(vertices, edges, removed=None) -> int:
    adj = _adjacency(vertices, edges, removed)
    seen: set = set()
    count = 0
    for start in adj:
        if start in seen:
            continue
        count += 1
        stack = [start]
        seen.add(start)
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return count


def recount_cut_vertices(graph) -> frozenset:
    """Cut vertices by deleting each vertex and recounting components."""
    vertices = graph.vertices()
    base = component_count(vertices, graph.edges)
    return frozenset(
        v for v in vertices if component_count(vertices, graph.edges, removed=v) > base
    )


def witness_errors(g1, g2, witness) -> list[str]:
    """Why `witness` is not a colour- and pairing-preserving isomorphism from
    g1 onto g2 (empty when it is one), checked edge by edge."""
    if witness is None:
        return ["no witness returned"]
    errors = []
    v1, v2 = set(g1.vertices()), set(g2.vertices())
    if set(witness) != v1 or set(witness.values()) != v2 or len(set(witness.values())) != len(v1):
        errors.append("witness is not a bijection of the vertex sets")
        return errors
    colors1, colors2 = dict(g1.vertex_colors), dict(g2.vertex_colors)
    for v, w in witness.items():
        if colors1[v] != colors2[w]:
            errors.append(f"vertex {v} -> {w} changes colour")
        if (witness[-v] != -w) if -v in witness else (-w in v2):
            errors.append(f"vertex {v} and its pair partner are mapped apart")
    edges2 = {(min(u, v), max(u, v), c) for u, v, c in g2.edges}
    mapped = set()
    for u, v, c in g1.edges:
        a, b = witness[u], witness[v]
        edge = (min(a, b), max(a, b), c)
        if edge not in edges2:
            errors.append(f"edge {u}--{v} maps to a non-edge")
        mapped.add(edge)
    if mapped != edges2:
        errors.append("witness does not cover every edge of the target")
    return errors


def isomorphism_exists(g1, g2) -> bool:
    """Whether any bijection passes `witness_errors`, by trying them all."""
    v1, v2 = g1.vertices(), g2.vertices()
    return len(v1) == len(v2) and any(
        not witness_errors(g1, g2, dict(zip(v1, image))) for image in itertools.permutations(v2)
    )
