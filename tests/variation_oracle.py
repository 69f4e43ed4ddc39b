"""Earlier forms of the variation's per-node orbit sum, kept as its references.

In :func:`loop_orbit_sum`, ``sum_j z^j`` is built one power at a time,
``j_max`` array products and ``j_max`` array additions per quadrature node,
with ``z = eps rho exp(-lam len(tau'))`` as in
:func:`friedzeta.variation._orbit_sum`.  :func:`checked_orbit_sum` is the
binary-splitting form that checked each node's lengths and took the complex
exponential at every ``lam``.
"""

import numpy as np

from friedzeta.summation import block_sum


def loop_orbit_sum(table, twist, lam, tau_prime, j_max):
    """``sum_gamma (int_gamma q) sum_j eps^j rho^j exp(-lam*j*len(tau'))``, one iterate at a time."""
    e1 = twist * np.exp(-lam * table.lengths(tau_prime))
    power = np.ones_like(e1)
    total = np.zeros_like(e1)
    for _ in range(j_max):
        power = power * e1
        total += power
    return complex(block_sum((-table.slope) * total))


def checked_orbit_sum(table, twist, lam, tau_prime, j_max):
    """The binary-splitting orbit sum with ``table.lengths(tau')`` and a complex ``exp`` at every node."""
    z = twist * np.exp(-lam * table.lengths(tau_prime))
    total = z.copy()  # S_1
    power = z.copy()  # z^m
    for bit in bin(j_max)[3:]:
        total += power * total
        power *= power
        if bit == "1":
            power *= z
            total += power
    return complex(block_sum((-table.slope) * total))


def orbit_sum_scale(table, twist, lam, tau_prime):
    """``sum_gamma |int_gamma q| |z| / (1 - |z|)``, the size of the terms the orbit sum adds.

    The sum itself cancels to near rounding level, so its error is measured
    against this scale and not against its own modulus.
    """
    z = np.abs(twist * np.exp(-lam * table.lengths(tau_prime)))
    return float(np.sum(np.abs(table.slope) * z / (1.0 - z)))
