"""Limited-memory BFGS with a strong-Wolfe line search.

Deterministic by construction (no randomized restarts, fixed summation
order), which the pipeline needs for byte-identical artifacts. The caller
owns the retry policy on line-search failure via ``initial_step``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError

WOLFE_C1 = 1e-4
WOLFE_C2 = 0.9


class LineSearchError(NumericalError):
    def __init__(self, msg: str, diagnostics: dict):
        super().__init__(msg)
        self.diagnostics = diagnostics


@dataclass
class MinimizeResult:
    x: np.ndarray
    fun: float
    grad: np.ndarray
    iterations: int
    converged: bool
    num_evals: int = 0


@dataclass
class _History:
    pairs: list = field(default_factory=list)     # (s, y, 1 / s.y), oldest first
    gamma: float = 1.0                            # s.y / y.y of the newest pair

    def push(self, s, y, memory):
        sy, yy = float(s @ y), float(y @ y)
        if sy <= 1e-10 * math.sqrt(s @ s) * math.sqrt(yy):
            return                      # curvature too weak to be useful
        self.pairs.append((s, y, 1.0 / sy))
        self.gamma = sy / yy
        if len(self.pairs) > memory:
            self.pairs.pop(0)

    def direction(self, g):
        """Two-loop recursion; returns the descent direction -H g."""
        q = g.copy()
        alphas = []
        for s, y, rho in reversed(self.pairs):
            a = rho * (s @ q)
            alphas.append(a)
            q -= a * y
        q *= self.gamma if self.pairs else 1.0      # H0 = gamma I, or I
        for (s, y, rho), a in zip(self.pairs, reversed(alphas)):
            b = rho * (y @ q)
            q += (a - b) * s
        return -q


def _strong_wolfe(fun, x, f0, g0, p, step0, diagnostics):
    """Strong-Wolfe line search (bracket + bisection zoom).

    Returns (alpha, f, g, evals). Raises LineSearchError when no acceptable
    step exists within the iteration budget.
    """
    d0 = float(g0 @ p)
    evals = 0

    def phi(a):
        nonlocal evals
        evals += 1
        f, g = fun(x + a * p)
        return f, g, float(g @ p)

    def zoom(lo, f_lo, g_lo, hi):
        nonlocal evals
        for _ in range(60):
            a = 0.5 * (lo + hi)
            f, g, d = phi(a)
            if f > f0 + WOLFE_C1 * a * d0 or f >= f_lo:
                hi = a
            else:
                if abs(d) <= -WOLFE_C2 * d0:
                    return a, f, g
                if d * (hi - lo) >= 0:
                    hi = lo
                lo, f_lo, g_lo = a, f, g
            if abs(hi - lo) <= 1e-16 * max(1.0, abs(hi)):
                break
        # Interval collapsed without meeting the curvature condition; the lo
        # endpoint still has sufficient decrease, so take it if it moved.
        if lo > 0.0 and f_lo <= f0 + WOLFE_C1 * lo * d0:
            return lo, f_lo, g_lo
        raise LineSearchError("line search zoom failed", dict(diagnostics, evals=evals))

    a_prev, f_prev, g_prev = 0.0, f0, g0
    a = step0
    for it in range(30):
        f, g, d = phi(a)
        if f > f0 + WOLFE_C1 * a * d0 or (f >= f_prev and it > 0):
            return (*zoom(a_prev, f_prev, g_prev, a), evals)
        if abs(d) <= -WOLFE_C2 * d0:
            return a, f, g, evals
        if d >= 0:
            return (*zoom(a, f, g, a_prev), evals)
        a_prev, f_prev, g_prev = a, f, g
        a = min(2.0 * a, 1e10)
    raise LineSearchError("line search failed to bracket", dict(diagnostics, evals=evals))


def minimize(
    fun,
    x0: np.ndarray,
    memory: int = 10,
    gtol: float = 1e-6,
    max_iterations: int = 500,
    initial_step: float = 1.0,
) -> MinimizeResult:
    """Minimize fun(x) -> (value, gradient) from x0.

    Stops when ||g||_2 <= gtol * (1 + |f|) or after max_iterations.
    Raises LineSearchError (with diagnostics) when the Wolfe search fails;
    callers retry with a smaller initial_step.
    """
    x = np.asarray(x0, dtype=float).copy()
    f, g = fun(x)
    evals = 1
    hist = _History()
    for it in range(max_iterations):
        gnorm = math.sqrt(g @ g)
        if gnorm <= gtol * (1.0 + abs(f)):
            return MinimizeResult(x, f, g, it, True, evals)
        p = hist.direction(g)
        if p @ g >= 0:
            p = -g                     # fall back to steepest descent
        step0 = initial_step if it > 0 else min(initial_step, 1.0 / max(gnorm, 1.0))
        diagnostics = {"iteration": it, "f": f, "gnorm": gnorm}
        try:
            a, f_new, g_new, ev = _strong_wolfe(fun, x, f, g, p, step0, diagnostics)
        except LineSearchError:
            # Below float resolution of f no decrease is measurable; that is
            # stationarity at working precision, not a search failure.
            if abs(g @ p) <= 100.0 * np.finfo(float).eps * (1.0 + abs(f)):
                return MinimizeResult(x, f, g, it,
                                      bool(gnorm <= gtol * (1.0 + abs(f))), evals)
            raise
        evals += ev
        x_new = x + a * p
        hist.push(x_new - x, g_new - g, memory)
        x, f, g = x_new, f_new, g_new
    return MinimizeResult(x, f, g, max_iterations, False, evals)
