"""Covert transmission over quasi-static Rayleigh fading with pilot-based
channel estimation: detection analysis, design optimization, and Monte Carlo
validation.

The library API is the layer modules, each indexed by its ``__all__``:
``params`` (the scenario model and its checks), ``special``, ``solver``,
``detection``, ``link``, ``optimizer``, ``simulation`` and ``errors``; ``cli``
is the command-line front end.  Importing the package loads none of them."""

__version__ = "0.1.0"
