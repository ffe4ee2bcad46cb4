"""Single-region random plans pinned to explicit subpacketizations."""

from fractions import Fraction

from pruw import random_sparse as rs


def fixture_plan(n: int, ell_r: int, ell_w: int) -> rs.SparsePlan:
    """The optimizer's plan at the budgets (ell - base) / ell, whose one
    region is exactly (ell_r, ell_w); below base the budget is negative and
    the optimizer refuses it."""
    base = rs.correct_bits(n)
    return rs.optimize_plan(n, Fraction(ell_r - base, ell_r), Fraction(ell_w - base, ell_w))
