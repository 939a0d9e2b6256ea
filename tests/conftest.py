"""Helpers shared by the test modules."""
import pytest

from pwdp.decomposition import INTRODUCE
from pwdp.engine import NodeCtx, NodeShape


def node_context(graph, npd, i):
    """The context of node i (0-based) of a decomposition already
    validated against graph, made from the graph alone: the reference
    that the engine's walk over the nodes (build_contexts) must equal.

    The final bag is empty, so nodes[i - 1].order is the bag before node
    i at i = 0 too.  A vertex is not its own neighbor, so at a forget
    node nbrs leaves out pos by itself.
    """
    nodes = npd.nodes
    kind, v, _order = nodes[i]
    prev = nodes[i - 1].order
    near = graph.neighbors(v)
    nbrs = tuple([j for j, u in enumerate(prev) if u in near])
    pos = None if kind == INTRODUCE else prev.index(v)
    shape = NodeShape(kind, pos, nbrs, len(prev), i == len(nodes) - 1)
    return NodeCtx(i, v, prev, shape)


@pytest.fixture(name="node_context")
def node_context_fixture():
    return node_context
