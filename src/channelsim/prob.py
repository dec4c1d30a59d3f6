"""Finite-alphabet probability primitives shared by the rest of the package.

Conventions used everywhere:

* logs are base 2 and all information quantities are in bits,
* pmfs are dense float64 vectors over symbols 0..n-1,
* channels are row-stochastic matrices, rows indexed by the input symbol,
* multi-receiver outputs are flattened row-major with receiver 0 as the
  most significant digit, so output (y0, y1) of sizes (m0, m1) lives at
  flat index y0 * m1 + y1.

Mass bookkeeping is validated to 1e-12; constructors never renormalize
silently, use the ``normalized`` classmethods when the input is a weight
vector rather than an exact pmf. Every count (a size, blocklength, cost,
list size, trial count or index) is an integer, not a bool, of at least 1
unless its function says otherwise, checked by ``_check_count``: ``2.0``,
``"2"`` and ``True`` are rejected, never truncated.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import numbers
from typing import Iterable

import numpy as np

MASS_TOL = 1e-12
# Most entries a dense tensor_power matrix may hold.
MAX_TENSOR_ENTRIES = 1 << 20


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.float64)
    out.setflags(write=False)
    return out


def _check_count(name: str, value, least: int = 1) -> int:
    """``value`` as a Python int, if it is an integer (not a bool) of at
    least ``least``; otherwise a ValueError naming the argument."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < least):
        rule = "a positive integer" if least == 1 else f"an integer >= {least}"
        raise ValueError(f"{name} must be {rule}, got {value!r}")
    return int(value)


def _check_blocklengths(values) -> np.ndarray:
    """``values`` as an array, if every entry is a blocklength that passes
    ``_check_count``.

    An integer array takes one vectorized test; anything else is checked
    entry by entry, as the Python objects given, so the first bad entry
    gets its ValueError (in ``[3, 2.5]`` that is 2.5, not 3.0).
    """
    arr = np.asarray(values)
    if arr.dtype.kind != "i" or (arr.size and arr.min() < 1):
        for value in np.asarray(values, dtype=object).ravel().tolist():
            _check_count("blocklength", value)
    return arr


def _compositions(dim: int, total: int) -> np.ndarray:
    """All compositions of ``total`` into ``dim`` parts (the types of
    strings of ``total`` letters), as integer rows in lexicographic order.

    Stars and bars: the dim - 1 dividers among total + dim - 1 slots, in
    lexicographic order, cut the stars into the parts. One part has the
    one composition, built without a slot range as long as ``total``."""
    if dim == 1:
        return np.array([[total]], dtype=np.int64)
    count = math.comb(total + dim - 1, dim - 1)
    cuts = np.fromiter(
        itertools.chain.from_iterable(
            itertools.combinations(range(total + dim - 1), dim - 1)),
        dtype=np.int64, count=count * (dim - 1)).reshape(count, dim - 1)
    edges = np.hstack([np.full((count, 1), -1), cuts,
                       np.full((count, 1), total + dim - 1)])
    return np.diff(edges, axis=1) - 1


def _lgamma_table(n_max: int) -> np.ndarray:
    """ln j! for j = 0..n_max, the log counts of every class: lg[L] minus
    lg summed over a type's entries is the log multinomial coefficient."""
    return np.fromiter(map(math.lgamma, range(1, n_max + 2)), np.float64,
                       n_max + 1)


def _check_mass(vec: np.ndarray, what: str) -> None:
    if vec.ndim != 1 or vec.size == 0:
        raise ValueError(f"{what} must be a nonempty vector")
    if np.any(vec < 0.0) or not np.all(np.isfinite(vec)):
        raise ValueError(f"{what} must be finite and nonnegative")
    total = float(vec.sum())
    if abs(total - 1.0) > MASS_TOL:
        raise ValueError(f"{what} must sum to 1 within {MASS_TOL}, got {total!r}")


def _check_rows(arr: np.ndarray) -> None:
    """_check_mass on every row of a nonempty 2-d array, in one pass.

    Rows that are finite, nonnegative and sum to 1 within half the
    tolerance pass at once; otherwise every row goes through _check_mass
    in order, so the first bad row raises its own message. The half
    tolerance covers any rounding difference between the vectorized and
    the per-row sums, so the same arrays pass and fail as row by row.
    """
    if (np.isfinite(arr).all() and (arr >= 0.0).all()
            and np.abs(arr.sum(axis=1) - 1.0).max() <= MASS_TOL / 2):
        return
    for x in range(arr.shape[0]):
        _check_mass(arr[x], f"channel row {x}")


@dataclasses.dataclass(frozen=True, eq=False)
class Pmf:
    """Probability mass function over a finite alphabet."""

    probs: np.ndarray

    def __post_init__(self):
        arr = _freeze(self.probs)
        _check_mass(arr, "pmf")
        object.__setattr__(self, "probs", arr)

    @classmethod
    def normalized(cls, weights) -> "Pmf":
        """Build a pmf from nonnegative weights, rescaling to unit mass."""
        arr = np.asarray(weights, dtype=np.float64)
        total = arr.sum()
        if not np.all(arr >= 0.0) or total <= 0.0:
            raise ValueError("weights must be nonnegative with positive total")
        return cls(arr / total)

    @property
    def size(self) -> int:
        return int(self.probs.size)


@dataclasses.dataclass(frozen=True, eq=False)
class Dmc:
    """Discrete memoryless channel W(y|x) as a row-stochastic matrix."""

    rows: np.ndarray

    def __post_init__(self):
        arr = _freeze(self.rows)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("channel matrix must be 2-d and nonempty")
        _check_rows(arr)
        object.__setattr__(self, "rows", arr)

    @classmethod
    def bsc(cls, delta: float) -> "Dmc":
        if not 0.0 <= delta <= 1.0:
            raise ValueError("crossover must lie in [0, 1]")
        return cls(np.array([[1.0 - delta, delta], [delta, 1.0 - delta]]))

    @property
    def input_size(self) -> int:
        return int(self.rows.shape[0])

    @property
    def output_size(self) -> int:
        return int(self.rows.shape[1])


def _channel_rows(w) -> np.ndarray:
    """The rows of a channel, or of a raw array checked as a Dmc."""
    return w.rows if hasattr(w, "rows") else Dmc(w).rows


@dataclasses.dataclass(frozen=True, eq=False)
class BroadcastDmc:
    """Channel from one sender to K receivers, outputs flattened row-major."""

    rows: np.ndarray
    output_sizes: tuple

    def __post_init__(self):
        sizes = tuple(_check_count("output size", m) for m in self.output_sizes)
        if not sizes:
            raise ValueError("output sizes must be nonempty")
        arr = _freeze(self.rows)
        if arr.ndim != 2 or arr.shape[1] != math.prod(sizes):
            raise ValueError("row width must equal the product of output sizes")
        _check_rows(arr)
        object.__setattr__(self, "rows", arr)
        object.__setattr__(self, "output_sizes", sizes)

    @property
    def input_size(self) -> int:
        return int(self.rows.shape[0])

    @property
    def num_receivers(self) -> int:
        return len(self.output_sizes)


@dataclasses.dataclass(frozen=True, eq=False)
class JointPmf:
    """Joint pmf over a product alphabet, stored flat with explicit factor sizes."""

    probs: np.ndarray
    factor_sizes: tuple

    def __post_init__(self):
        sizes = tuple(_check_count("factor size", m) for m in self.factor_sizes)
        arr = _freeze(np.ravel(self.probs))
        if math.prod(sizes) != arr.size:
            raise ValueError("factor sizes do not match table size")
        _check_mass(arr, "joint pmf")
        object.__setattr__(self, "probs", arr)
        object.__setattr__(self, "factor_sizes", sizes)


def tvd(p: Pmf, q: Pmf) -> float:
    """Total variation distance (1/2) * sum |p - q|."""
    if p.size != q.size:
        raise ValueError("alphabets differ")
    return 0.5 * float(np.abs(p.probs - q.probs).sum())


def channel_tvd(w, v) -> float:
    """Worst-case row distance: max over inputs of tvd between the rows."""
    if w.rows.shape != v.rows.shape:
        raise ValueError("channel shapes differ")
    return 0.5 * float(np.abs(w.rows - v.rows).sum(axis=1).max())


def tensor_power(w: Dmc, n: int) -> Dmc:
    """n-fold product channel; index order is big-endian in symbol 1.

    The dense matrix has |X|^n * |Y|^n entries, at most
    MAX_TENSOR_ENTRIES.
    """
    n = _check_count("power", n)
    entries = (w.input_size ** n) * (w.output_size ** n)
    if entries > MAX_TENSOR_ENTRIES:
        raise ValueError(f"tensor power needs {entries} entries, "
                         f"cap is {MAX_TENSOR_ENTRIES}")
    rows = w.rows
    for _ in range(n - 1):
        rows = np.kron(rows, w.rows)
    return Dmc(rows)


def reduce_broadcast(w: BroadcastDmc, keep: Iterable[int]):
    """Marginalize a broadcast channel onto a subset of receivers.

    Receivers are kept in their original order regardless of the order
    given. Returns a Dmc for a single receiver, else a BroadcastDmc.
    """
    keep_sorted = sorted({_check_count("receiver", i, least=0) for i in keep})
    if not keep_sorted or keep_sorted[-1] >= w.num_receivers:
        raise ValueError("receiver subset out of range")
    shaped = w.rows.reshape((w.input_size,) + w.output_sizes)
    drop = tuple(1 + i for i in range(w.num_receivers) if i not in keep_sorted)
    reduced = shaped.sum(axis=drop) if drop else shaped
    flat = reduced.reshape(w.input_size, -1)
    if len(keep_sorted) == 1:
        return Dmc(flat)
    return BroadcastDmc(flat, tuple(w.output_sizes[i] for i in keep_sorted))


def count_field(obj: dict, key: str) -> int:
    """The JSON integer >= 1 under ``key``; booleans and floats fail."""
    return _check_count(repr(key), obj.get(key))


def counts_field(obj: dict, key: str) -> tuple:
    """The nonempty list of JSON integers >= 1 under ``key``."""
    value = obj.get(key)
    if not (isinstance(value, list) and value):
        raise ValueError(f"{key!r} must be a nonempty list, got {value!r}")
    return tuple(_check_count(f"each of {key!r}", v) for v in value)


def numbers_field(obj: dict, key: str, ndim: int = 1) -> np.ndarray:
    """The finite JSON numbers under ``key`` as an array: a nonempty list,
    or with ``ndim=2`` nonempty rows of equal length; booleans and strings
    fail."""
    value = obj.get(key)
    rows = value if ndim == 2 and isinstance(value, list) else [value]
    if rows and all(isinstance(row, list) and row
                    and len(row) == len(rows[0])
                    and set(map(type, row)) <= {int, float} for row in rows):
        try:
            arr = np.array(value, dtype=np.float64)
        except OverflowError:  # an integer past the double range
            pass
        else:
            if np.all(np.isfinite(arr)):
                return arr
    shape = "equal-length rows" if ndim == 2 else "a list"
    raise ValueError(f"{key!r} must be {shape} of finite numbers")


def pmf_field(obj: dict, key: str) -> Pmf:
    """The pmf formed by the numbers under ``key``."""
    probs = numbers_field(obj, key)
    try:
        return Pmf(probs)
    except ValueError as exc:
        raise ValueError(f"{key!r}: {exc}") from None


def channel_from_json(obj: dict):
    """Parse the channel interchange schema.

    Accepts a dict shaped like
    {"input_size": 2, "output_sizes": [2], "rows": [[...], [...]]};
    other keys are ignored. A single output gives a Dmc, several give a
    BroadcastDmc.
    """
    sizes = counts_field(obj, "output_sizes")
    rows = numbers_field(obj, "rows", ndim=2)
    if rows.shape[0] != count_field(obj, "input_size"):
        raise ValueError("row count disagrees with input_size")
    if len(sizes) == 1:
        if rows.shape[1] != sizes[0]:
            raise ValueError("row width disagrees with output size")
        return Dmc(rows)
    return BroadcastDmc(rows, sizes)


def channel_to_json(w) -> dict:
    sizes = list(w.output_sizes) if isinstance(w, BroadcastDmc) else [w.output_size]
    return {
        "input_size": w.input_size,
        "output_sizes": sizes,
        "rows": [[float(v) for v in row] for row in w.rows],
    }
