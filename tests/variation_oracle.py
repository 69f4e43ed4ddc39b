"""Per-orbit forms of the variation's node sums and of the direct quotient, kept as their references.

The variation sums the (orbit, iterate) cells with ``p j <= n_max``.  Here
each orbit's iterate sum is built one power at a time, up to ``j = n_max //
p`` (:func:`loop_orbit_sum`, :func:`loop_ruelle_log`), with ``z = eps rho
exp(-lam len(tau'))``.  :func:`binary_orbit_sum` is the form the cells
replaced: every orbit summed to one ``j_max``, by binary splitting.
:func:`two_grid_ratio` evaluates the Simpson rule on ``quad_subdiv`` panels
and again on twice as many, each grid anew.
"""

import cmath

import numpy as np

from friedzeta import variation
from friedzeta.summation import block_sum
from friedzeta.toral import orbit_table, orientation_index


def loop_twist(table, representation):
    """``eps * rho`` of every primitive orbit, with the index from ``orientation_index``."""
    eps = orientation_index(table.model.automorphism, 1) ** table.period
    if representation is None:
        return eps.astype(complex)
    return eps * representation.values(table.class_exps, table.period)


def _iterate_sums(table, twist, lam, tau_prime, depth, weight):
    """``sum_{j <= depth // p} weight(j) z^j`` per orbit, one power at a time."""
    z = twist * np.exp(-lam * table.lengths(tau_prime))
    iterates = depth // table.period
    power = np.ones_like(z)
    total = np.zeros_like(z)
    for j in range(1, int(iterates.max(initial=0)) + 1):
        power = power * z
        total += np.where(j <= iterates, weight(j) * power, 0.0)
    return total


def loop_orbit_sum(table, twist, lam, tau_prime, depth):
    """``-sum_gamma slope sum_{j <= depth // p} z^j``: the variation integrand at ``tau'``."""
    return complex(block_sum(-table.slope * _iterate_sums(table, twist, lam, tau_prime, depth, lambda j: 1.0)))


def loop_ruelle_log(table, twist, lam, tau_prime, depth):
    """``-sum_gamma sum_{j <= depth // p} z^j / j``: the Ruelle log over the cells ``p j <= depth``."""
    return -complex(block_sum(_iterate_sums(table, twist, lam, tau_prime, depth, lambda j: 1.0 / j)))


def orbit_sum_scale(table, twist, lam, tau_prime, slope=True):
    """``sum_gamma |w| |z| / (1 - |z|)``, ``w`` the slope (or 1), the size of the terms an orbit sum adds.

    The sums cancel to near rounding level, so their error is measured against this scale and not against
    their own modulus.
    """
    z = np.abs(twist * np.exp(-lam * table.lengths(tau_prime)))
    return float(np.sum((np.abs(table.slope) if slope else 1.0) * z / (1.0 - z)))


def binary_orbit_sum(table, twist, lam, tau_prime, j_max):
    """``-sum_gamma slope sum_{j <= j_max} z^j``, the iterate sum taken by binary splitting.

    ``S_2m = S_m + z^m S_m`` and ``S_2m+1 = S_2m + z^(2m+1)``, reading the bits of ``j_max`` from the top.
    """
    lengths = table.length0 + tau_prime * table.slope
    z = twist * (np.exp(-lam.real * lengths) if lam.imag == 0 else np.exp(-lam * lengths))
    bits = bin(j_max)[3:]
    total = z  # S_1
    if bits:
        power = z * z  # z^m
        total = z + power  # S_m, m = 2
    for i, bit in enumerate(bits):
        if i:
            total += power * total
            power *= power
        if bit == "1":
            power *= z
            total += power
    return complex(block_sum(-table.slope * total))


def node_sum(model, representation, lam, tau_prime, n_max):
    """The variation's own node sum at ``tau'``, from its cells of the table to ``n_max``."""
    cells = variation._cells(orbit_table(model, n_max), representation)
    return variation._cell_sum(cells, cells.slope_weight, complex(lam), tau_prime)


def two_grid_ratio(model, representation, lam, tau, policy, orbit_sum=None):
    """Simpson on ``quad_subdiv`` panels and again on twice as many, each grid evaluated anew.

    ``orbit_sum(t)`` is the integrand, the variation's node sum by default.  Returns
    ``(ratio, integral, richardson_diff)`` of the finer rule.
    """
    lam = complex(lam)
    if orbit_sum is None:
        def orbit_sum(t):
            return node_sum(model, representation, lam, t, policy.max_period)

    def eval_ratio(panels):
        nodes = [tau * i / panels for i in range(panels + 1)]
        values = [orbit_sum(t) for t in nodes]
        integral = variation._simpson(values, tau / panels) if tau != 0.0 else 0.0
        return cmath.exp(-lam * integral), integral

    ratio_coarse, _ = eval_ratio(policy.quad_subdiv)
    ratio_fine, integral = eval_ratio(2 * policy.quad_subdiv)
    return ratio_fine, integral, abs(ratio_fine - ratio_coarse)
