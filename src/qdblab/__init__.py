"""Finite-dimensional open quantum dynamics with detailed balance checks
and energy-exchange fluctuation ratios.

Importing the package imports none of its modules; import them by name,
e.g. ``from qdblab.cli import main``.
"""

__version__ = "0.1.0"
