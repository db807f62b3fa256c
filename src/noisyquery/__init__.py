"""Noisy-query computation of OR and MAX, with exact validation oracles.

Simulates computing the OR of n bits from noisy bit reads and the argmax
of n reals from noisy pairwise comparisons, where every answer flips
independently with a known probability p < 1/2.  Ships the
query-optimal two-phase algorithms, their knockout-tournament and
stopped-walk building blocks, closed-form complexity bounds, exact
small-instance enumeration for validation, and a reproducible Monte
Carlo harness with a CLI.  Each name is imported from its module; the
package re-exports nothing.
"""

__version__ = "0.1.0"
