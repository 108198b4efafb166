"""Finite-support datasets: synthetic generators, corruption models, CSV I/O.

A dataset is an empirical distribution on labelled points: an (n, d) matrix
of features, labels in {+1, -1}, and strictly positive probability weights
summing to one.  Instances are immutable; every generator and corruption is
a deterministic function of its parameters and an integer seed (PCG64 via
``numpy.random.default_rng``, one independent stream per operation).

A dataset owns its arrays.  It adopts an input without copying only when the
input is read-only, owns its data and is column-major, which is how the
generators, the corruptions and ``load_csv`` hand over the arrays they
build; every other input is copied once.  So no caller array, or view made of one before the call,
can write into a dataset, and a corruption shares the unchanged n x d points
with its base.

The points are held column-major (Fortran order).  Their only readers are
the two products of every oracle and objective evaluation, X w (the
margins) and X^T s (the gradient), and on column-major points OpenBLAS forms
both as d passes over whole columns rather than n dot products of length d.
At d = 10 with one BLAS thread on a 2-core Intel Xeon (numpy 2.4 with
OpenBLAS 0.3.31, best of 5 x 50 calls), X w took 17 us at n = 10^4 and
about 360 us at n = 10^5 (29 and 670-740 us row-major), and X^T s 15 and
340-360 us (26 and 580-620 us).  The generators fill that layout directly,
drawing the same values in the same order as one row-major draw.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Dataset",
    "CsvFormatError",
    "generate_separable",
    "select_corruption_indices",
    "flip_labels",
    "inject_adversarial",
    "load_csv",
    "save_csv",
]

BOX_HALF_WIDTH = 10.0
ADVERSARIAL_X1 = -10.0

_WEIGHT_SUM_TOL = 1e-12

# rows drawn per call when filling column-major points: a row-major chunk of
# 8192 x d values stays small beside the n x d array it fills
_CHUNK_ROWS = 8192


class CsvFormatError(ValueError):
    """Malformed dataset file; the message names the offending line."""


@dataclass(frozen=True)
class Dataset:
    points: np.ndarray   # (n, d) float, column-major so that X w and X^T s stream whole columns
    labels: np.ndarray   # (n,) entries +1.0 / -1.0
    weights: np.ndarray  # (n,) positive, sums to 1

    def __post_init__(self):
        points = _private(self.points, 2)
        labels = _private(self.labels, 1)
        weights = _private(self.weights, 1)
        n, d = points.shape
        if n < 1 or d < 1:
            raise ValueError(f"dataset needs n >= 1 and d >= 1, got shape {points.shape}")
        if labels.shape != (n,):
            raise ValueError(f"labels shape {labels.shape} does not match n = {n}")
        if weights.shape != (n,):
            raise ValueError(f"weights shape {weights.shape} does not match n = {n}")
        # each check names its first bad entry, found only once the check fails
        finite = np.isfinite(points)
        if not finite.all():
            row, col = np.argwhere(~finite)[0]
            raise ValueError(f"points must be finite, got {float(points[row, col])} at row {row}, column {col}")
        signed = np.isin(labels, (1.0, -1.0))
        if not signed.all():
            k = np.argmin(signed)
            raise ValueError(f"labels must be +1 or -1, got {float(labels[k])} at index {k}")
        positive = weights > 0.0
        if not positive.all():
            k = np.argmin(positive)
            raise ValueError(f"weights must be strictly positive, got {float(weights[k])} at index {k}")
        if abs(weights.sum() - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError(f"weights must sum to 1, got {float(weights.sum())!r}")
        for arr, name in ((points, "points"), (labels, "labels"), (weights, "weights")):
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    @classmethod
    def with_uniform_weights(cls, points, labels) -> "Dataset":
        n = np.atleast_2d(np.asarray(points)).shape[0]
        return cls(points, labels, _frozen(np.full(n, 1.0 / n)))

    def allclose(self, other: "Dataset", tol: float = 1e-15) -> bool:
        return (
            self.points.shape == other.points.shape
            and np.all(np.abs(self.points - other.points) <= tol)
            and np.array_equal(self.labels, other.labels)
            and np.all(np.abs(self.weights - other.weights) <= tol)
        )


def _private(x, ndim: int) -> np.ndarray:
    """x as a read-only, column-major float array that no caller can write through.

    A read-only input that owns its data and is column-major is adopted as
    it is (no caller keeps a writable handle on it); any other input is
    copied once, into column-major order.  Column-major points halve the
    time of the margins' X w and the gradient's X^T s (see the module
    docstring); a 1-D array is column-major whenever it is contiguous.
    """
    a = np.asarray(x, dtype=float)
    if a.ndim != ndim:
        a = np.atleast_2d(a) if ndim == 2 else a.ravel()
    if a.flags.writeable or not a.flags.owndata or not a.flags.f_contiguous:
        a = a.copy(order="F")
        a.setflags(write=False)
    return a


def _frozen(a: np.ndarray) -> np.ndarray:
    """Hand a freshly built array to a Dataset without a copy."""
    a.setflags(write=False)
    return a


def _check_fraction(fraction: float) -> None:
    if not (0.0 <= fraction <= 0.5):
        raise ValueError(f"fraction must lie in [0, 0.5], got {fraction}")


def _count(fraction: float, n: int) -> int:
    # floor(fraction * n), snapping upward when the product sits within
    # 1e-9 of the next integer (0.3 * 10 evaluates to 2.999...96 in binary)
    t = fraction * n
    k = math.floor(t)
    if t - k > 1.0 - 1e-9:
        k += 1
    return k


def generate_separable(n: int, d: int, seed: int) -> Dataset:
    """Uniform points in the box [-10, 10]^d labelled by the sign of x1.

    Points whose first coordinate is exactly zero are resampled so the label
    rule is total.  Weights are uniform 1/n.  The column-major points are
    filled in row chunks from the one stream, so they hold the values of one
    row-major ``rng.uniform`` draw of shape (n, d), bit for bit.
    """
    if n < 1 or d < 1:
        raise ValueError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    rng = np.random.default_rng(seed)
    points = np.empty((n, d), order="F")
    for start in range(0, n, _CHUNK_ROWS):
        rows = points[start:start + _CHUNK_ROWS]
        rows[...] = rng.uniform(-BOX_HALF_WIDTH, BOX_HALF_WIDTH, size=rows.shape)
    on_boundary = points[:, 0] == 0.0
    while on_boundary.any():
        points[on_boundary] = rng.uniform(
            -BOX_HALF_WIDTH, BOX_HALF_WIDTH, size=(int(on_boundary.sum()), d)
        )
        on_boundary = points[:, 0] == 0.0
    labels = np.where(points[:, 0] > 0.0, 1.0, -1.0)
    return Dataset.with_uniform_weights(_frozen(points), _frozen(labels))


def select_corruption_indices(n: int, fraction: float, seed: int) -> np.ndarray:
    """The sorted size-floor(fraction*n) index set shared by both corruptions."""
    _check_fraction(fraction)
    k = _count(fraction, n)
    if k == 0:
        return np.empty(0, dtype=int)
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(n, size=k, replace=False))


def flip_labels(ds: Dataset, fraction: float, seed: int) -> Dataset:
    """Negate the labels of floor(fraction * n) uniformly chosen points."""
    idx = select_corruption_indices(ds.n, fraction, seed)
    labels = ds.labels.copy()
    labels[idx] = -labels[idx]
    return Dataset(ds.points, _frozen(labels), ds.weights)


def inject_adversarial(ds: Dataset, fraction: float, seed: int) -> Dataset:
    """Move floor(fraction * n) random points to x1 = -10 and relabel them +1."""
    idx = select_corruption_indices(ds.n, fraction, seed)
    points = ds.points.copy(order="F")
    labels = ds.labels.copy()
    points[idx, 0] = ADVERSARIAL_X1
    labels[idx] = 1.0
    return Dataset(_frozen(points), _frozen(labels), ds.weights)


def save_csv(ds: Dataset, path) -> None:
    """Write `x1,...,xd,y,p` with 17 significant digits (lossless round trip)."""
    header = [f"x{j + 1}" for j in range(ds.d)] + ["y", "p"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(ds.n):
            cells = [f"{v:.17g}" for v in ds.points[i]]
            cells.append(f"{int(ds.labels[i])}")
            cells.append(f"{ds.weights[i]:.17g}")
            fh.write(",".join(cells) + "\n")


def load_csv(path) -> Dataset:
    """Read a dataset written by :func:`save_csv`.

    The weight column is optional; when absent, weights default to uniform
    1/n.  Every structural problem is reported with its line number.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        has_weights = header[-1:] == ["p"]
        feature_cols = len(header) - (2 if has_weights else 1)
        expected = [f"x{j + 1}" for j in range(feature_cols)] + ["y"] + (
            ["p"] if has_weights else []
        )
        if feature_cols < 1 or header != expected:
            raise CsvFormatError(
                f"{path}: line 1: header must be x1,...,xd,y[,p], got {','.join(header)}"
            )

        points, labels, weights = [], [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise CsvFormatError(
                    f"{path}: line {lineno}: expected {len(header)} columns, got {len(row)}"
                )
            try:
                values = [float(c) for c in row]
            except ValueError as exc:
                raise CsvFormatError(f"{path}: line {lineno}: {exc}") from None
            for j in range(feature_cols):
                if not math.isfinite(values[j]):
                    raise CsvFormatError(
                        f"{path}: line {lineno}: feature x{j + 1} must be finite, got {row[j]}"
                    )
            y = values[feature_cols]
            if y not in (1.0, -1.0):
                raise CsvFormatError(
                    f"{path}: line {lineno}: label must be +1 or -1, got {row[feature_cols]}"
                )
            if has_weights:
                p = values[-1]
                if not 0.0 < p < math.inf:
                    raise CsvFormatError(
                        f"{path}: line {lineno}: weight must be positive and finite, got {row[-1]}"
                    )
                weights.append(p)
            points.append(values[:feature_cols])
            labels.append(y)

        if not points:
            raise CsvFormatError(f"{path}: no data rows")
        n = len(points)
        w = np.asarray(weights) if has_weights else np.full(n, 1.0 / n)
        return Dataset(_frozen(np.array(points, order="F")), _frozen(np.asarray(labels)), _frozen(w))
