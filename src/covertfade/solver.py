"""The one root finder, shared by the CDI threshold argmin and the covertness root.

``newton_steps`` is its core: a generator that yields each next iterate and is
sent back (f, f') there, so one search can run beside others.
``newton_bracket`` drives one core from a function of one point (the
covertness root); ``newton_lockstep`` drives one core per problem and asks for
the (f, f') of every open problem at once (the CDI argmin over a grid of
points).  A problem's iterates depend on its own (f, f') alone.  Both callers
solve in the log of their variable, so the one stopping step ``TOL`` is a
relative tolerance in the threshold and in the covert power alike.
"""

import math

from .errors import NumericError

__all__ = ["TOL", "newton_steps", "newton_bracket", "newton_lockstep"]

TOL = 1e-8  # the step that ends a search


def newton_steps(lo, hi, x, f, df):
    """Root in [lo, hi] of f < 0 left of it and > 0 right of it, by safeguarded
    Newton from x with its known f and f': yields each next iterate, to be sent
    (f, f') there, and returns the root.  A step that leaves the bracket or
    does not halve the last one (a zero, non-finite or wrongly signed f'
    included) is a bisection.  Ends at a zero of f, at a Newton step that
    rounds to x, or at a step below ``TOL``; where f keeps one sign, within
    ``TOL`` of the end it points to.  Else NumericError naming the bracket
    and the last iterate."""
    last = hi - lo
    for _ in range(100):  # bisection alone closes 1e3 to 1e-8 in 37 steps
        if f == 0.0:
            return x
        lo, hi = (x, hi) if f < 0.0 else (lo, x)
        step = x - f / df if df else lo  # lo: not inside, so a bisection
        if step == x and 0.0 < df < math.inf:  # a Newton step below the last bit of x
            return x
        if not (lo < step < hi and abs(step - x) <= 0.5 * last):
            step = 0.5 * (lo + hi)
        last = abs(step - x)
        if last <= TOL:
            return step
        x = step
        f, df = yield x
    raise NumericError(f"no root to {TOL!r} in [{lo!r}, {hi!r}]; last iterate {x!r}")


def newton_bracket(fn, lo, hi, x, f, df):
    """The root of ``newton_steps``, where ``fn(x)`` gives (f(x), f'(x))."""
    steps = newton_steps(lo, hi, x, f, df)
    try:
        x = next(steps)
        while True:
            x = steps.send(fn(x))
    except StopIteration as done:
        return done.value


def newton_lockstep(fn, starts):
    """The roots of one ``newton_steps`` per (lo, hi, x, f, f') in ``starts``,
    in rounds: ``fn(index, x)`` gives the lists of f and f' at the iterates
    ``x`` of the problems ``index`` still open."""
    roots = [None] * len(starts)
    steps = {i: newton_steps(*start) for i, start in enumerate(starts)}
    sent = dict.fromkeys(steps)
    while steps:
        iterates = {}
        for i, core in list(steps.items()):
            try:
                iterates[i] = core.send(sent[i])
            except StopIteration as done:
                roots[i] = done.value
                del steps[i]
        if iterates:
            sent = dict(zip(iterates, zip(*fn(list(iterates), list(iterates.values())))))
    return roots
