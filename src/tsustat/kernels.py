"""Bounded symmetric kernels of order r.

A kernel is a symmetric function h of r data points with a known sup bound M.
Built-in kinds:

  - ``mean``          (r=1) identity on scalars
  - ``sign_product``  (r=2) concordance sign product on bivariate points
  - ``spearman_sym``  (r=3) symmetric rank-correlation kernel on bivariate points
  - ``table``         (any r) dense lookup table over a finite state alphabet

The mean, sign-product and order-3 rank kernels also carry ``sample_fn``, a
vectorized evaluator over many draws of r points that equals ``fn`` draw by
draw on every float input, ties, infinities and NaN included. The rank
kernels' ``sample_fn`` reads each draw's value from a table of ``fn`` over
the sign patterns of its points (``_sign_pattern_values``).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cache, partial
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
    the n kernel values, equal to ``fn`` applied draw by draw on every float
    input.
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


def _mean_fn(bound, x):
    v = float(x)
    if abs(v) > bound:
        raise ValueError(f"mean kernel input {v} exceeds bound {bound}")
    return v


def _mean_sample_fn(bound, samples):
    v = samples[:, 0, 0]
    worst = float(np.max(np.abs(v), initial=0.0))
    if worst > bound:
        raise ValueError(f"mean kernel input of size {worst} exceeds bound {bound}")
    return v


def mean_kernel(bound: float = 1.0) -> KernelSpec:
    """Order-1 identity kernel; inputs must stay within the declared bound."""
    return KernelSpec(order=1, bound=bound, kind="mean", fn=partial(_mean_fn, bound),
                      sample_fn=partial(_mean_sample_fn, bound))


def _sign_product_fn(x, y):
    return sign(float(x[0]) - float(y[0])) * sign(float(x[1]) - float(y[1]))


@cache
def _sign_pattern_table(fn: Callable, order: int) -> np.ndarray:
    """``fn``'s value for each sign pattern of ``order`` bivariate points,
    flat over the index that ``_sign_pattern_values`` reads; NaN until a
    draw of the pattern arrives. One writable table per kernel and process,
    filled on demand: continuous draws realize only the r! strict orders of
    the points per coordinate, 36 of the 729 cells at order 3 and 4 of 9 at
    order 2. A fill only turns a NaN into ``fn``'s value for that pattern,
    so the order of the draws that fill it changes no value read.
    """
    return np.full(9 ** math.comb(order, 2), math.nan)


def _sign_pattern_values(fn: Callable, samples: np.ndarray) -> np.ndarray:
    """``fn`` over (n, r, 2) draws of a kernel that depends on its points
    only through the signs of their coordinate differences, read from
    ``_sign_pattern_table`` by each draw's pattern index.

    A coordinate's pattern reads the codes of its C(r, 2) point pairs (a, b),
    1 + ``sign(a - b)`` with the difference ``fn`` takes (so a NaN, from NaN
    or inf - inf, is a tie), as a base-3 number; coordinate 0 is the high
    digit. A pattern the table does not hold yet takes ``fn`` of one of its
    draws, so ``sample_fn`` equals ``fn`` on every float input.
    """
    n, order, dimension = samples.shape
    index = np.zeros(n, dtype=np.uint16)  # at most 3^6 - 1 at order 3
    diff = np.empty(n)
    greater, less = np.empty(n, dtype=bool), np.empty(n, dtype=bool)
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, a tie
        for c in range(dimension):
            for i, j in itertools.combinations(range(order), 2):
                # one strided read per pair; the comparisons then run contiguous
                np.subtract(samples[:, i, c], samples[:, j, c], out=diff)
                np.greater(diff, 0.0, out=greater)
                np.less(diff, 0.0, out=less)
                # Horner step on code - 1 = greater - less; uint16 wraps, and
                # the offset below brings every index back into range
                index *= 3
                index += greater
                index -= less
    index += (3 ** (dimension * math.comb(order, 2)) - 1) // 2
    table = _sign_pattern_table(fn, order)
    values = table[index]
    new = np.flatnonzero(np.isnan(values))
    if new.size:  # patterns this process has not met yet
        draw_of = np.empty(table.size, dtype=np.intp)
        draw_of[index[new]] = new  # one draw of each new pattern
        for code in np.flatnonzero(np.bincount(index[new])):
            table[code] = fn(*samples[draw_of[code]])
        values[new] = table[index[new]]
    return values


def sign_product_kernel() -> KernelSpec:
    """Order-2 concordance kernel sign(x1-y1)*sign(x2-y2) on bivariate points."""
    return KernelSpec(order=2, bound=1.0, kind="sign_product", fn=_sign_product_fn,
                      sample_fn=partial(_sign_pattern_values, _sign_product_fn))


def _spearman_fn(x, y, z):
    total = 0.0
    for a, b, c in itertools.permutations((x, y, z)):
        total += sign(float(a[0]) - float(b[0])) * sign(float(a[1]) - float(c[1]))
    return 0.5 * total


def spearman_symmetric_kernel() -> KernelSpec:
    """Order-3 symmetric rank-correlation kernel on bivariate points.

    Half the sum of sign(a1-b1)*sign(a2-c2) over the six ordered arrangements
    of the three points. Takes values in [-1, 1]; equals 1 on strictly
    concordant triples (verified exhaustively in the tests).
    """
    return KernelSpec(order=3, bound=1.0, kind="spearman_sym", fn=_spearman_fn,
                      sample_fn=partial(_sign_pattern_values, _spearman_fn))


def _table_fn(table, *states):
    return float(table[tuple(int(s) for s in states)])


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

    return KernelSpec(order=order, bound=bound, kind="table", fn=partial(_table_fn, sym),
                      table=sym)


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
            key = tuple(_table_token(int, p, f"{path}:{lineno}") for p in parts[:order])
            entries[key] = _table_token(float, parts[order], f"{path}:{lineno}")
    return table_kernel(entries, order=order, state_count=state_count)


def _table_token(kind, token: str, where: str):
    """``token`` read as an int state or a finite float value, or a
    ValueError that names ``where`` and the token."""
    try:
        value = kind(token)
        if math.isfinite(value):
            return value
    except ValueError:
        pass
    what = "state" if kind is int else "value"
    need = "an integer" if kind is int else "a finite number"
    raise ValueError(f"{where}: {what} {token!r} is not {need}")
