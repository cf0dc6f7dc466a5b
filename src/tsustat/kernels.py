"""Bounded symmetric kernels of order r.

A kernel is a symmetric function h of r data points with a known sup bound M.
Built-in kinds:

  - ``mean``          (r=1) identity on scalars
  - ``sign_product``  (r=2) concordance sign product on bivariate points
  - ``spearman_sym``  (r=3) symmetric rank-correlation kernel on bivariate points
  - ``table``         (any r) dense lookup table over a finite state alphabet

The mean, sign-product and order-3 rank kernels also carry ``sample_fn``, a
vectorized evaluator over many draws of r points that returns exactly the
values ``fn`` gives draw by draw.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


def sign(v: float) -> float:
    """Sign with sign(0) = 0, so tied coordinates drop out of rank kernels."""
    if v > 0:
        return 1.0
    if v < 0:
        return -1.0
    return 0.0


@dataclass(frozen=True)
class KernelSpec:
    """A symmetric kernel of order ``order`` with sup bound ``bound``.

    ``fn`` takes the r points as separate arguments. ``table`` is set only
    for table kernels and holds the dense symmetric lookup array used by the
    exact-chain machinery. ``sample_fn``, when set, maps an (n, r, d) array
    of n draws of r points (d = 2 for the rank kernels, 1 for scalars) to
    the n kernel values, equal to ``fn`` applied draw by draw.
    """

    order: int
    bound: float
    kind: str
    fn: Callable = field(repr=False, compare=False)
    table: np.ndarray | None = field(default=None, repr=False, compare=False)
    sample_fn: Callable | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.order < 1:
            raise ValueError(f"kernel order must be >= 1, got {self.order}")
        if not self.bound > 0:
            raise ValueError(f"kernel bound must be positive, got {self.bound}")


def mean_kernel(bound: float = 1.0) -> KernelSpec:
    """Order-1 identity kernel; inputs must stay within the declared bound."""

    def fn(x):
        v = float(x)
        if abs(v) > bound:
            raise ValueError(f"mean kernel input {v} exceeds bound {bound}")
        return v

    def sample_fn(samples):
        v = samples[:, 0, 0]
        worst = float(np.max(np.abs(v), initial=0.0))
        if worst > bound:
            raise ValueError(f"mean kernel input of size {worst} exceeds bound {bound}")
        return v

    return KernelSpec(order=1, bound=bound, kind="mean", fn=fn, sample_fn=sample_fn)


def sign_product_kernel() -> KernelSpec:
    """Order-2 concordance kernel sign(x1-y1)*sign(x2-y2) on bivariate points."""

    def fn(x, y):
        return sign(float(x[0]) - float(y[0])) * sign(float(x[1]) - float(y[1]))

    def sample_fn(samples):
        return (np.sign(samples[:, 0, 0] - samples[:, 1, 0])
                * np.sign(samples[:, 0, 1] - samples[:, 1, 1]))

    return KernelSpec(order=2, bound=1.0, kind="sign_product", fn=fn, sample_fn=sample_fn)


def _spearman_base(a, b, c) -> float:
    return sign(float(a[0]) - float(b[0])) * sign(float(a[1]) - float(c[1]))


def spearman_symmetric_kernel() -> KernelSpec:
    """Order-3 symmetric rank-correlation kernel on bivariate points.

    Half the sum of sign(a1-b1)*sign(a2-c2) over the six ordered arrangements
    of the three points. Takes values in [-1, 1]; equals 1 on strictly
    concordant triples (verified exhaustively in the tests).
    """

    def fn(x, y, z):
        total = 0.0
        for a, b, c in itertools.permutations((x, y, z)):
            total += _spearman_base(a, b, c)
        return 0.5 * total

    def sample_fn(samples):
        # the terms are integers, so the sum is exact in any order
        total = np.zeros(samples.shape[0])
        for a, b, c in itertools.permutations(range(3)):
            total += (np.sign(samples[:, a, 0] - samples[:, b, 0])
                      * np.sign(samples[:, a, 1] - samples[:, c, 1]))
        return 0.5 * total

    return KernelSpec(order=3, bound=1.0, kind="spearman_sym", fn=fn, sample_fn=sample_fn)


def table_kernel(values: np.ndarray | dict, order: int | None = None,
                 state_count: int | None = None) -> KernelSpec:
    """Kernel over a finite state alphabet, stored as a dense lookup table.

    ``values`` is either an r-dimensional array indexed by state tuples or a
    mapping from state tuples, each state in 0..state_count-1, to reals. Symmetry is enforced at construction:
    the value at any index tuple is taken from its sorted arrangement.
    """
    if isinstance(values, dict):
        if order is None or state_count is None:
            raise ValueError("dict tables need explicit order and state_count")
        dense = np.zeros((state_count,) * order)
        for key, v in values.items():
            if len(key) != order:
                raise ValueError(f"table key {key} does not have {order} states")
            if not all(0 <= k < state_count for k in key):
                raise ValueError(f"table key {key} has a state outside 0..{state_count - 1}")
            dense[tuple(key)] = float(v)
    else:
        dense = np.asarray(values, dtype=float)
        if order is not None and dense.ndim != order:
            raise ValueError(f"table has {dense.ndim} axes, expected {order}")
        order = dense.ndim
        state_count = dense.shape[0]
    if dense.shape != (state_count,) * order:
        raise ValueError(f"table must be a hypercube, got shape {dense.shape}")

    sym = np.empty_like(dense)
    for idx in np.ndindex(dense.shape):
        sym[idx] = dense[tuple(sorted(idx))]
    bound = float(np.max(np.abs(sym)))
    if bound == 0.0:
        bound = 1.0  # all-zero table is bounded by anything positive

    def fn(*states):
        return float(sym[tuple(int(s) for s in states)])

    return KernelSpec(order=order, bound=bound, kind="table", fn=fn, table=sym)


def load_table_kernel(path, order: int, state_count: int) -> KernelSpec:
    """Read a table kernel from text lines of ``s_1 ... s_r value``."""
    entries = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != order + 1:
                raise ValueError(f"{path}:{lineno}: expected {order} states and a value")
            key = tuple(int(p) for p in parts[:order])
            entries[key] = float(parts[order])
    return table_kernel(entries, order=order, state_count=state_count)
