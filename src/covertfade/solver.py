"""The one root finder, shared by the CDI threshold argmin and the covertness root."""

from .errors import NumericError

__all__ = ["newton_bracket"]


def newton_bracket(fn, lo, hi, x, f, df, tol):
    """Root in [lo, hi] of f < 0 left of it and > 0 right of it, by safeguarded
    Newton from x with its known f and f'; ``fn(x)`` gives (f(x), f'(x)).  A step
    that leaves the bracket or does not halve the last one (a zero, non-finite
    or wrongly signed f' included) is a bisection.  Ends at a zero of f or a
    step below ``tol``; where f keeps one sign, within ``tol`` of the end it
    points to.  Else NumericError naming the bracket and the last iterate."""
    last = hi - lo
    for _ in range(100):  # bisection alone closes 1e3 to 1e-8 in 37 steps
        if f == 0.0:
            return x
        lo, hi = (x, hi) if f < 0.0 else (lo, x)
        step = x - f / df if df else lo  # lo: not inside, so a bisection
        if not (lo < step < hi and abs(step - x) <= 0.5 * last):
            step = 0.5 * (lo + hi)
        last = abs(step - x)
        if last <= tol:
            return step
        x = step
        f, df = fn(x)
    raise NumericError(f"no root to {tol!r} in [{lo!r}, {hi!r}]; last iterate {x!r}")
