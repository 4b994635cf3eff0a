"""Grid verification of the scaling inequalities behind the curvature bounds.

Four strict inequalities are checked over dense parameter grids, each exposed
as a margin (left-hand side minus right-hand side, oriented so that positive
means the inequality holds):

  * sinh scaling:  sinh(xy) - xy < y^3 (sinh x - x)       for x > 0, y in (0,1)
  * coth ratio:    psi(xy) psi(x) x / (psi(x) - psi(xy))
                      < y^2 (sinh 2x - 2x) / (4 (1-y^2))  for x > 0, y in (0,1)
  * coth polynomial: x^3 (coth x + x (1 - coth^2 x)) > 6 (x coth x - 1)^2
  * sin scaling:   sin(xy) >= y sin(x)                    for x in (0,pi), y in [0,1]

The margins share the phi/psi code paths of the curvature module, so that
substituting (x, y) = (2 r, sqrt(beta)) or (r, sqrt(beta)) reproduces the
exact inequalities the curvature discriminant bound rests on.  The coth
polynomial margin is summed as its all-positive Taylor series where the
direct form cancels.
"""

from __future__ import annotations

import math

import numpy as np

from .curvature import phi, psi

BOUNDARY_INSET = 1e-3
SERIES_REL_STOP = 1e-16
SERIES_MAX_TERMS = 200
MAX_RECORDED = 20  # violations a report lists; the rest are counted
LEMMA_BLOCK_ROWS = 32  # grid rows per block of a 2-D margin, whose temporaries then stay in cache


def lemma_sinh_scaling(x, y):
    """Margin y^3 phi(x) - phi(x y); positive for x > 0, 0 < y < 1."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = y ** 3 * phi(x) - phi(x * y)
    return float(out) if np.ndim(out) == 0 else out


def lemma_coth_ratio(x, y):
    """Margin y^2 phi(2x)/(4(1-y^2)) - x psi(xy) psi(x)/(psi(x) - psi(xy)).

    Positive for x > 0, 0 < y < 1.  The denominator psi(x) - psi(xy) is
    positive by monotonicity of psi; a nonpositive value indicates a bug and
    raises.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    psi_x, psi_xy = psi(x), psi(x * y)
    denom = psi_x - psi_xy
    if np.any(denom <= 0.0):
        raise ArithmeticError("psi(x) - psi(xy) must be positive for y < 1")
    lhs = x * psi_xy * psi_x / denom
    rhs = y ** 2 * phi(2.0 * x) / (4.0 * (1.0 - y) * (1.0 + y))
    out = rhs - lhs
    return float(out) if np.ndim(out) == 0 else out


def coth_poly_I_series(x, max_terms=SERIES_MAX_TERMS):
    """I(x) as its all-positive Taylor sum over k >= 3.

    sum 2^(2k+2) x^(2k+4) (2k+3)(k-1)(k-2) / (2k+4)!; every term through x^8
    of the direct form cancels, which is why the series route is exact where
    the direct one is noise.
    """
    x = np.asarray(x, dtype=float)
    total = np.zeros_like(x)
    for k in range(3, max_terms + 1):
        term = (2.0 ** (2 * k + 2) * x ** (2 * k + 4)
                * (2 * k + 3) * (k - 1) * (k - 2) / math.factorial(2 * k + 4))
        total = total + term
        if np.all(term <= SERIES_REL_STOP * np.abs(total)):
            break
    return float(total) if np.ndim(total) == 0 else total


def lemma_coth_poly(x):
    """Margin x^3 (coth x + x (1 - coth^2 x)) - 6 (x coth x - 1)^2; positive for x > 0.

    Equals I(x)/sinh^2(x); the series route is evaluated only below x = 0.5, where the
    direct form is destroyed by cancellation.
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        coth = 1.0 / np.tanh(x)
        out = np.asarray(x ** 3 * (coth + x * (1.0 - coth ** 2)) - 6.0 * (x * coth - 1.0) ** 2)
    small = x < 0.5
    out[small] = coth_poly_I_series(x[small]) / np.sinh(x[small]) ** 2
    return float(out) if out.ndim == 0 else out


def lemma_sin_scaling(x, y):
    """Margin sin(xy) - y sin(x); nonnegative for x in (0, pi), y in [0, 1]."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = np.sin(x * y) - y * np.sin(x)
    return float(out) if np.ndim(out) == 0 else out


# --- grid reports ------------------------------------------------------------

def open_interval_grid(lo, hi, n, open_hi=True):
    """n-ish points of (lo, hi), or (lo, hi], inset from open ends, log-refined toward them.

    Strict inequalities degenerate at the closure of their domain; the
    refinement distinguishes margins tending to zero from violations.
    """
    a = lo + BOUNDARY_INSET
    b = hi - BOUNDARY_INSET if open_hi else hi
    span = min(1.0, (b - a) / 4.0)
    parts = [np.linspace(a, b, max(n - 16, 2)), lo + np.geomspace(BOUNDARY_INSET, span, 8)]
    if open_hi:
        parts.append(hi - np.geomspace(BOUNDARY_INSET, span, 8))
    return np.unique(np.concatenate(parts))


def _sweep(lemma_name, margin_fn, xs, ys, grid_desc):
    """Report dict of one inequality margin over the grid xs (x ys)."""
    coords = [("x", xs)] if ys is None else [("x", xs), ("y", ys)]
    margins = np.asarray(margin_fn(xs) if ys is None else np.concatenate(
        [margin_fn(xs[i:i + LEMMA_BLOCK_ROWS, None], ys[None, :])
         for i in range(0, len(xs), LEMMA_BLOCK_ROWS)]))
    flat = margins.ravel()

    def at(j):
        idx = np.unravel_index(int(j), margins.shape)
        return {name: float(axis[i]) for (name, axis), i in zip(coords, idx)}

    idx_min = int(np.argmin(flat))
    min_margin = float(flat[idx_min])
    bad = np.nonzero(flat <= 0.0)[0]
    violations = [{**at(j), "margin": float(flat[j])} for j in bad[:MAX_RECORDED]]
    if len(bad) > MAX_RECORDED:
        violations.append({"suppressed": int(len(bad) - MAX_RECORDED)})
    return {"lemma": lemma_name, "grid": grid_desc, "n_points": int(flat.size),
            "min_margin": min_margin, "min_at": at(idx_min), "violations": violations,
            "passed": not violations and min_margin > 0.0}


def verify_all(n=500):
    """Report dicts of the four inequality sweeps, about n grid points per axis."""
    def grid(**axes):
        return {**axes, "n": n, "inset": BOUNDARY_INSET}

    xs = open_interval_grid(0.0, 10.0, n, open_hi=False)
    ys = open_interval_grid(0.0, 1.0, n)
    return [
        _sweep("sinh-scaling", lemma_sinh_scaling, xs, ys, grid(x=[0.0, 10.0], y=[0.0, 1.0])),
        _sweep("coth-ratio", lemma_coth_ratio, xs, ys, grid(x=[0.0, 10.0], y=[0.0, 1.0])),
        _sweep("coth-polynomial", lemma_coth_poly, xs, None, grid(x=[0.0, 10.0])),
        _sweep("sin-scaling", lemma_sin_scaling, open_interval_grid(0.0, math.pi, n), ys,
               grid(x=[0.0, math.pi], y=[0.0, 1.0])),
    ]
