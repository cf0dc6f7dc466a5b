import itertools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tsustat.kernels import (KernelSpec, load_table_kernel, mean_kernel, sign_product_kernel,
                             spearman_symmetric_kernel, table_kernel)

finite = st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False)


def bivariate(rng, n):
    return [rng.standard_normal(2) for _ in range(n)]


def test_sign_product_examples():
    k = sign_product_kernel()
    assert k.fn(np.array([1.0, 1.0]), np.array([2.0, 2.0])) == 1.0
    # tie in the first coordinate: sign(0) = 0
    assert k.fn(np.array([1.0, 2.0]), np.array([1.0, 3.0])) == 0.0
    assert k.fn(np.array([1.0, 5.0]), np.array([2.0, 2.0])) == -1.0


def test_spearman_concordant_triple_is_one():
    k = spearman_symmetric_kernel()
    pts = [np.array([1.0, 1.0]), np.array([2.0, 2.0]), np.array([3.0, 3.0])]
    assert k.fn(*pts) == pytest.approx(1.0, abs=1e-15)


def test_spearman_matches_permutation_enumeration():
    # value = half the sum of sign(a1-b1)*sign(a2-c2) over ordered arrangements
    rng = np.random.default_rng(0)
    k = spearman_symmetric_kernel()
    for _ in range(50):
        pts = bivariate(rng, 3)
        direct = 0.5 * sum(
            np.sign(a[0] - b[0]) * np.sign(a[1] - c[1])
            for a, b, c in itertools.permutations(pts)
        )
        assert k.fn(*pts) == pytest.approx(direct, abs=1e-14)


def test_spearman_bound_is_one_exhaustive():
    # all configurations with coordinates from a 3-point grid, ties included
    k = spearman_symmetric_kernel()
    grid = [0.0, 1.0, 2.0]
    worst = 0.0
    for coords in itertools.product(grid, repeat=6):
        pts = [np.array(coords[0:2]), np.array(coords[2:4]), np.array(coords[4:6])]
        worst = max(worst, abs(k.fn(*pts)))
    assert worst <= 1.0 + 1e-15


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec(order=0, bound=1.0, kind="bad", fn=lambda: 0)
    with pytest.raises(ValueError):
        KernelSpec(order=1, bound=0.0, kind="bad", fn=lambda x: 0)


def test_mean_kernel():
    k = mean_kernel(bound=10.0)
    assert k.fn(3.0) == 3.0
    with pytest.raises(ValueError):
        k.fn(11.0)


@given(st.lists(st.tuples(finite, finite), min_size=2, max_size=2))
@settings(max_examples=200, deadline=None)
def test_sign_product_bounded_and_symmetric(pts):
    k = sign_product_kernel()
    pts = [np.array(p) for p in pts]
    v = k.fn(*pts)
    assert abs(v) <= k.bound
    assert v == k.fn(*pts[::-1])


@given(st.lists(st.tuples(finite, finite), min_size=3, max_size=3))
@settings(max_examples=200, deadline=None)
def test_spearman_bounded_and_symmetric(pts):
    k = spearman_symmetric_kernel()
    pts = [np.array(p) for p in pts]
    v = k.fn(*pts)
    assert abs(v) <= k.bound + 1e-12
    for perm in itertools.permutations(pts):
        assert k.fn(*perm) == pytest.approx(v, abs=1e-12)


def test_table_kernel_symmetrized_and_bounded():
    raw = np.array([[0.0, 2.0], [-1.0, 0.5]])
    k = table_kernel(raw)
    # value at (1, 0) is read from the sorted tuple (0, 1)
    assert k.fn(1, 0) == k.fn(0, 1) == 2.0
    assert k.bound == 2.0
    assert k.table is not None


def test_table_kernel_from_dict_and_file(tmp_path):
    entries = {(0, 1): -0.5, (0, 0): 0.5, (1, 1): 0.5}
    k = table_kernel(entries, order=2, state_count=2)
    assert k.fn(1, 0) == -0.5
    f = tmp_path / "kernel.txt"
    f.write_text("# pair kernel\n0 0 0.5\n0 1 -0.5\n1 1 0.5\n")
    k2 = load_table_kernel(f, order=2, state_count=2)
    assert np.array_equal(k.table, k2.table)


def test_table_kernel_shape_errors(tmp_path):
    with pytest.raises(ValueError):
        table_kernel(np.zeros((2, 3)))
    f = tmp_path / "bad.txt"
    f.write_text("0 1\n")
    with pytest.raises(ValueError):
        load_table_kernel(f, order=2, state_count=2)


@pytest.mark.parametrize("key", [(0, -1), (0, 5)])
def test_table_kernel_rejects_states_outside_the_alphabet(key):
    """A negative state would wrap to another table entry; a large one would
    fall off the table."""
    with pytest.raises(ValueError, match=r"outside 0\.\.1"):
        table_kernel({key: 1.0}, order=2, state_count=2)


@pytest.mark.parametrize("kernel", [
    mean_kernel(bound=2.0), sign_product_kernel(), spearman_symmetric_kernel(),
    table_kernel({(0, 0): 0.5, (0, 1): -0.25, (1, 1): 1.0}, order=2, state_count=2),
], ids=["mean", "sign_product", "spearman_sym", "table"])
def test_kernel_specs_pickle(kernel):
    """Pool workers receive kernels by pickle; a round trip keeps fn and sample_fn."""
    again = pickle.loads(pickle.dumps(kernel))
    assert again == kernel
    rng = np.random.default_rng(3)
    if kernel.kind == "table":
        for states in itertools.product(range(2), repeat=2):
            assert again.fn(*states) == kernel.fn(*states)
        assert np.array_equal(again.table, kernel.table)
        return
    d = 1 if kernel.kind == "mean" else 2
    samples = rng.uniform(-1.0, 1.0, size=(50, kernel.order, d))
    assert np.array_equal(again.sample_fn(samples), kernel.sample_fn(samples))
    for draw in samples[:5]:
        points = draw[:, 0] if d == 1 else draw
        assert again.fn(*points) == kernel.fn(*points)
