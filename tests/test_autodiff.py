import random

import pytest

from cadlab import autodiff as ad
from cadlab.autodiff import (
    DomainError, const, grad, finite_diff_check,
    add, sub, neg, mul, div, scale, exp, log, tanh, nmax, nsum, dot, wsum,
)


def test_forward_op_values():
    assert mul(const(3.0), const(4.0)).value == 12.0
    assert exp(const(0.0)).value == 1.0
    assert abs(log(exp(const(2.0))).value - 2.0) < 1e-12
    assert add(const(1.5), const(2.5)).value == 4.0
    assert sub(const(1.0), const(3.0)).value == -2.0
    assert neg(const(2.0)).value == -2.0
    assert div(const(1.0), const(4.0)).value == 0.25
    assert scale(const(3.0), -2.0).value == -6.0
    assert tanh(const(0.0)).value == 0.0
    assert nmax([const(1.0), const(5.0), const(2.0)]).value == 5.0
    assert nsum([const(1.0), const(2.0), const(3.0)]).value == 6.0
    assert dot([const(1.0), const(2.0)], [const(3.0), const(4.0)]).value == 11.0
    assert wsum([const(2.0), const(3.0)], [0.5, 2.0]).value == 7.0


def test_log_domain_error():
    with pytest.raises(DomainError):
        log(const(0.0))
    with pytest.raises(DomainError):
        log(const(-1.0))


def test_grad_square():
    x = const(3.0)
    f = mul(x, x)
    (g,) = grad(f, [x])
    assert g == 6.0


def test_grad_product_two_vars():
    x, y = const(2.0), const(5.0)
    f = mul(x, y)
    gx, gy = grad(f, [x, y])
    assert (gx, gy) == (5.0, 2.0)


def test_second_derivative_cube():
    x = const(3.0)
    f = mul(mul(x, x), x)
    (g1,) = grad(f, [x], differentiable=True)
    assert abs(g1.value - 27.0) < 1e-12
    (g2,) = grad(g1, [x])
    assert abs(g2 - 18.0) < 1e-12


def test_grad_unconnected_is_zero():
    x, z = const(2.0), const(7.0)
    f = mul(x, x)
    gx, gz = grad(f, [x, z])
    assert gx == 4.0
    assert gz == 0.0
    gx_n, gz_n = grad(f, [x, z], differentiable=True)
    assert gz_n.value == 0.0


def test_grad_requires_node_output():
    with pytest.raises(TypeError):
        grad(3.0, [const(1.0)])


def test_grad_of_output_wrt_itself():
    x = const(4.0)
    (g,) = grad(x, [x])
    assert g == 1.0


def _random_unary_cases(rng):
    return [
        ("exp", exp, lambda: rng.uniform(-2.0, 2.0)),
        ("log", log, lambda: rng.uniform(0.1, 4.0)),
        ("tanh", tanh, lambda: rng.uniform(-3.0, 3.0)),
        ("neg", neg, lambda: rng.uniform(-3.0, 3.0)),
    ]


def test_unary_partials_match_finite_differences():
    rng = random.Random(7)
    for name, op, draw in _random_unary_cases(rng):
        for _ in range(100):
            x0 = draw()
            err = finite_diff_check(lambda ps, op=op: op(ps[0]), [x0], 1e-4)
            assert err < 1e-6, f"{name} at {x0}: err={err}"


def test_binary_and_nary_partials_match_finite_differences():
    rng = random.Random(8)
    for _ in range(100):
        xs = [rng.uniform(-2.0, 2.0) for _ in range(6)]
        # keep divisor away from 0 and nmax away from ties
        xs[3] = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])

        def build(ps):
            a = add(ps[0], ps[1])
            m = mul(ps[1], ps[2])
            d = div(ps[0], ps[3])
            s = sub(m, d)
            w = wsum(ps, [0.3, -1.2, 0.7, 2.0, -0.4, 1.1])
            t = dot(ps[:3], ps[3:])
            return nsum([a, s, w, t, scale(ps[4], 1.7), ps[5]])

        err = finite_diff_check(build, xs, 1e-4)
        assert err < 1e-6

        def build_max(ps):
            return mul(nmax(ps), ps[0])

        # skip configurations where the perturbation could flip the argmax
        top2 = sorted(xs, reverse=True)[:2]
        if top2[0] - top2[1] > 1e-3:
            err = finite_diff_check(build_max, xs, 1e-4)
            assert err < 1e-6


def test_grad_is_linear():
    rng = random.Random(9)
    for _ in range(50):
        xs = [const(rng.uniform(-2.0, 2.0)) for _ in range(4)]
        f = mul(xs[0], mul(xs[1], xs[2]))
        g = add(mul(xs[3], xs[3]), mul(xs[0], xs[3]))
        a, b = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
        combo = add(scale(f, a), scale(g, b))
        gf = grad(f, xs)
        gg = grad(g, xs)
        gc = grad(combo, xs)
        for i in range(4):
            assert abs(gc[i] - (a * gf[i] + b * gg[i])) < 1e-12


def test_second_order_symmetry_on_random_polynomials():
    rng = random.Random(10)
    for _ in range(50):
        x = const(rng.uniform(-2.0, 2.0))
        y = const(rng.uniform(-2.0, 2.0))
        c = [rng.uniform(-1.0, 1.0) for _ in range(6)]
        # f = c0*x^3 + c1*x^2*y + c2*x*y^2 + c3*y^3 + c4*x*y + c5*x
        f = nsum([
            scale(mul(mul(x, x), x), c[0]),
            scale(mul(mul(x, x), y), c[1]),
            scale(mul(x, mul(y, y)), c[2]),
            scale(mul(mul(y, y), y), c[3]),
            scale(mul(x, y), c[4]),
            scale(x, c[5]),
        ])
        gx, gy = grad(f, [x, y], differentiable=True)
        (dxy,) = grad(gx, [y])
        (dyx,) = grad(gy, [x])
        assert abs(dxy - dyx) < 1e-9


def _second_differences(build, point, h):
    """Hessian of build's output by central differences of its value alone,
    so no backward rule enters the numeric side."""
    def at(i, si, j, sj):
        xs = list(point)
        xs[i] += si * h
        xs[j] += sj * h
        return build([const(x) for x in xs]).value

    n = len(point)
    return [[(at(i, 1, j, 1) - at(i, 1, j, -1) - at(i, -1, j, 1) + at(i, -1, j, -1))
             / (4.0 * h * h) for j in range(n)] for i in range(n)]


# one graph per op whose differentiable backward rule the other tests leave
# unrun; each op's parents depend on the leaves nonlinearly, so every term
# of the rule reaches the Hessian
SECOND_ORDER_CASES = {
    "tanh": lambda ps: tanh(mul(ps[0], ps[1])),
    "wsum": lambda ps: wsum([mul(ps[0], ps[1]), mul(ps[1], ps[2]), mul(ps[0], ps[0])],
                            [0.7, -1.3, 2.1]),
    "dot": lambda ps: dot([mul(ps[0], ps[1]), ps[2]], [ps[1], mul(ps[0], ps[2])]),
    "neg": lambda ps: neg(mul(mul(ps[0], ps[0]), ps[1])),
    "div": lambda ps: div(mul(ps[0], ps[1]), mul(ps[2], ps[2])),
}


@pytest.mark.parametrize("name", sorted(SECOND_ORDER_CASES))
def test_gradient_of_differentiable_gradient_matches_second_differences(name):
    """d/dx_j of the differentiable gradient's i-th entry matches the central
    second difference within 1e-6 (relative, floored at 1)."""
    build = SECOND_ORDER_CASES[name]
    rng = random.Random(12)
    for _ in range(20):
        # leaves away from 0, so the divisor z*z stays away from 0
        point = [rng.uniform(0.5, 1.5) * rng.choice([-1.0, 1.0]) for _ in range(3)]
        leaves = [const(x) for x in point]
        first = grad(build(leaves), leaves, differentiable=True)
        numeric = _second_differences(build, point, 1e-4)
        for i, g in enumerate(first):
            for j, analytic in enumerate(grad(g, leaves)):
                err = abs(analytic - numeric[i][j]) / max(abs(analytic), abs(numeric[i][j]), 1.0)
                assert err < 1e-6, f"{name} at {point}: H[{i}][{j}] err={err}"


def test_evaluation_is_bitwise_deterministic():
    def build():
        xs = [const(0.1 * i - 0.35) for i in range(8)]
        z = nsum([tanh(mul(xs[i], xs[(i + 1) % 8])) for i in range(8)])
        z = add(z, exp(scale(z, 0.01)))
        out = mul(z, z)
        return out, xs

    out1, xs1 = build()
    out2, xs2 = build()
    assert out1.value == out2.value
    g1 = grad(out1, xs1)
    g2 = grad(out2, xs2)
    assert g1 == g2


def test_finite_diff_check_examples():
    err = finite_diff_check(lambda ps: mul(ps[0], ps[0]), [3.0], 1e-4)
    assert err < 1e-6
    err = finite_diff_check(lambda ps: const(5.0), [1.0, 2.0], 1e-4)
    assert err == 0.0
    err = finite_diff_check(lambda ps: exp(ps[0]), [1.0], 1e-4)
    assert err < 1e-6
    with pytest.raises(ValueError):
        finite_diff_check(lambda ps: ps[0], [1.0], 0.0)


def test_gradient_tape_visits_reverse_topo_once():
    x = const(1.5)
    y = add(x, x)
    z = mul(y, y)
    tape = ad.GradientTape(z)
    # parents appear before children in the record
    order = {id(n): i for i, n in enumerate(tape.nodes)}
    for node in tape.nodes:
        for p in node.parents:
            assert order[id(p)] < order[id(node)]
    assert len(tape.nodes) == len({id(n) for n in tape.nodes})
    (g,) = tape.gradients([x])
    assert g == 12.0  # d/dx (2x)^2 = 8x at 1.5
