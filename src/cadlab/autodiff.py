"""Reverse-mode automatic differentiation over scalar graph nodes.

Everything is built from scalar Nodes so that second-order derivatives need no
special machinery: a backward pass builds the adjoints out of ordinary Nodes,
and in differentiable mode those are returned, so a second backward pass can
differentiate them again.

Fused n-ary ops (nsum, dot, wsum) keep graph sizes small. Training takes its
gradient in closed form (``losses.objective_and_grad``); this engine is the
independent reference that the tests check that gradient against.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence


class DomainError(ValueError):
    """Raised when an op is evaluated outside its domain (e.g. log of x <= 0)."""


class Node:
    """One scalar value in the computation graph.

    value   -- f64 result of the op applied to the parent values
    parents -- predecessor nodes (empty for leaves)
    op      -- operation tag, used for backward dispatch and debugging
    aux     -- op-specific payload (argmax index, wsum coefficients, ...)
    """

    __slots__ = ("value", "parents", "op", "aux")

    def __init__(self, value: float, parents: tuple = (), op: str = "leaf", aux=None):
        self.value = value
        self.parents = parents
        self.op = op
        self.aux = aux

    def __repr__(self):
        return f"Node({self.value!r}, op={self.op!r})"


def const(x: float) -> Node:
    return Node(float(x))


# ---------------------------------------------------------------------------
# forward ops

def add(a: Node, b: Node) -> Node:
    return Node(a.value + b.value, (a, b), "add")


def sub(a: Node, b: Node) -> Node:
    return Node(a.value - b.value, (a, b), "sub")


def neg(a: Node) -> Node:
    return Node(-a.value, (a,), "neg")


def mul(a: Node, b: Node) -> Node:
    return Node(a.value * b.value, (a, b), "mul")


def div(a: Node, b: Node) -> Node:
    return Node(a.value / b.value, (a, b), "div")


def scale(a: Node, c: float) -> Node:
    """Multiply by a plain float constant (no graph node for the constant)."""
    return Node(a.value * c, (a,), "scale", c)


def exp(a: Node) -> Node:
    return Node(math.exp(a.value), (a,), "exp")


def log(a: Node) -> Node:
    if a.value <= 0.0:
        raise DomainError(f"log requires a positive input, got {a.value!r}")
    return Node(math.log(a.value), (a,), "log")


def tanh(a: Node) -> Node:
    return Node(math.tanh(a.value), (a,), "tanh")


def nmax(xs: Sequence[Node]) -> Node:
    """Max of several nodes; the subgradient routes to the first argmax."""
    if not xs:
        raise ValueError("nmax of an empty sequence")
    best, arg = xs[0].value, 0
    for i in range(1, len(xs)):
        v = xs[i].value
        if v > best:
            best, arg = v, i
    return Node(best, tuple(xs), "nmax", arg)


def nsum(xs: Sequence[Node]) -> Node:
    """Sum of several nodes as a single fused graph node."""
    s = 0.0
    for x in xs:
        s += x.value
    return Node(s, tuple(xs), "nsum")


def dot(xs: Sequence[Node], ys: Sequence[Node]) -> Node:
    """Inner product of two equal-length node sequences, fused."""
    k = len(xs)
    if k != len(ys):
        raise ValueError(f"dot length mismatch: {k} vs {len(ys)}")
    s = 0.0
    for i in range(k):
        s += xs[i].value * ys[i].value
    return Node(s, tuple(xs) + tuple(ys), "dot", k)


def wsum(xs: Sequence[Node], coeffs: Sequence[float]) -> Node:
    """Linear combination sum_i coeffs[i] * xs[i] with float coefficients."""
    k = len(xs)
    if k != len(coeffs):
        raise ValueError(f"wsum length mismatch: {k} vs {len(coeffs)}")
    s = 0.0
    for i in range(k):
        s += xs[i].value * coeffs[i]
    return Node(s, tuple(xs), "wsum", tuple(coeffs))


# ---------------------------------------------------------------------------
# backward rules
#
# One set of rules for both orders: each rule builds its adjoint contributions
# out of Nodes, so the result of a backward pass can itself be differentiated.
# Every op computes its value with plain float arithmetic as it builds the
# node, so a first-order pass just returns the .value of each adjoint.

def _acc_node(accum: dict, node: Node, contrib: Node) -> None:
    prev = accum.get(node)
    accum[node] = contrib if prev is None else add(prev, contrib)


def _bw_graph(node: Node, adj: Node, accum: dict) -> None:
    op = node.op
    p = node.parents
    if op == "add":
        _acc_node(accum, p[0], adj)
        _acc_node(accum, p[1], adj)
    elif op == "mul":
        _acc_node(accum, p[0], mul(adj, p[1]))
        _acc_node(accum, p[1], mul(adj, p[0]))
    elif op == "tanh":
        _acc_node(accum, p[0], mul(adj, sub(const(1.0), mul(node, node))))
    elif op == "wsum":
        coeffs = node.aux
        for i, parent in enumerate(p):
            _acc_node(accum, parent, scale(adj, coeffs[i]))
    elif op == "dot":
        k = node.aux
        for i in range(k):
            _acc_node(accum, p[i], mul(adj, p[k + i]))
            _acc_node(accum, p[k + i], mul(adj, p[i]))
    elif op == "nsum":
        for parent in p:
            _acc_node(accum, parent, adj)
    elif op == "sub":
        _acc_node(accum, p[0], adj)
        _acc_node(accum, p[1], neg(adj))
    elif op == "neg":
        _acc_node(accum, p[0], neg(adj))
    elif op == "scale":
        _acc_node(accum, p[0], scale(adj, node.aux))
    elif op == "exp":
        _acc_node(accum, p[0], mul(adj, node))
    elif op == "log":
        _acc_node(accum, p[0], div(adj, p[0]))
    elif op == "div":
        _acc_node(accum, p[0], div(adj, p[1]))
        _acc_node(accum, p[1], neg(div(mul(adj, node), p[1])))
    elif op == "nmax":
        _acc_node(accum, p[node.aux], adj)
    elif op == "leaf":
        pass
    else:  # pragma: no cover
        raise AssertionError(f"no backward rule for op {op!r}")


# ---------------------------------------------------------------------------
# backward driver

class GradientTape:
    """Topologically ordered record of the nodes reachable from one output.

    The backward pass walks ``nodes`` exactly once in reverse order,
    accumulating adjoints into a seed map keyed by node. Nodes that are not
    descendants of any requested input are skipped, which both prunes work and
    makes the gradient of an unconnected variable exactly 0.
    """

    def __init__(self, output: Node):
        self.output = output
        self.nodes = self._toposort(output)

    @staticmethod
    def _toposort(output: Node) -> list[Node]:
        topo: list[Node] = []
        visited: set[int] = set()
        stack: list[tuple[Node, bool]] = [(output, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            nid = id(node)
            if nid in visited:
                continue
            visited.add(nid)
            stack.append((node, True))
            for parent in node.parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        return topo

    def gradients(self, wrt: Sequence[Node], differentiable: bool = False) -> list:
        wrt_ids = {id(w) for w in wrt}
        # forward sweep: mark descendants of the wrt set (topo order has
        # parents before children, so one pass suffices)
        active: set[int] = set()
        for node in self.nodes:
            nid = id(node)
            if nid in wrt_ids:
                active.add(nid)
                continue
            for parent in node.parents:
                if id(parent) in active:
                    active.add(nid)
                    break
        adjoint: dict[Node, Node] = {self.output: const(1.0)}
        out_id = id(self.output)
        for node in reversed(self.nodes):
            nid = id(node)
            if nid not in active and nid != out_id:
                continue
            adj = adjoint.get(node)
            if adj is None or not node.parents:
                continue
            _bw_graph(node, adj, adjoint)
        zero = const(0.0)
        grads = [adjoint.get(w, zero) for w in wrt]
        return grads if differentiable else [g.value for g in grads]


def grad(output: Node, wrt: Sequence[Node], differentiable: bool = False) -> list:
    """Gradient of a scalar output node with respect to each node in wrt.

    With differentiable=True the returned gradients are Nodes built from
    ordinary graph ops, so they can be fed back into further graph
    construction and differentiated again; otherwise they are their floats.
    """
    if not isinstance(output, Node):
        raise TypeError("grad requires a scalar Node output")
    return GradientTape(output).gradients(list(wrt), differentiable)


def finite_diff_check(build: Callable[[list[Node]], Node], point: Sequence[float],
                      step: float) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``build`` constructs the scalar output from a list of leaf nodes; it is
    re-invoked at perturbed points for the numeric side, so the numeric path
    is independent of the backward pass it checks.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    point = [float(x) for x in point]
    leaves = [const(x) for x in point]
    analytic = grad(build(leaves), leaves)

    def eval_at(xs: list[float]) -> float:
        return build([const(x) for x in xs]).value

    worst = 0.0
    for i in range(len(point)):
        hi = list(point)
        lo = list(point)
        hi[i] += step
        lo[i] -= step
        numeric = (eval_at(hi) - eval_at(lo)) / (2.0 * step)
        a = analytic[i]
        err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
        if math.isnan(err):
            return math.inf
        if err > worst:
            worst = err
    return worst
