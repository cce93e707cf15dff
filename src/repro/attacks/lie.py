"""The Little-Is-Enough (LIE) attack (Baruch et al., 2019).

Byzantine clients estimate the coordinate-wise mean ``mu_j`` and standard
deviation ``sigma_j`` of the honest gradients and submit

    (g_m)_j = mu_j - z * sigma_j

for a small positive attack factor ``z`` (Eq. 1 of the SignGuard paper).
The maximal stealthy ``z`` depends only on the number of clients and the
Byzantine fraction through the standard normal CDF (Eq. 2); the paper's
default experiments fix ``z = 0.3``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.attacks.base import Attack, AttackContext


def lie_z_max(num_clients: int, num_byzantine: int) -> float:
    """Maximal attack factor from Eq. (2) of the paper.

    ``z_max = max_z { phi(z) < (n - floor(n/2 + 1)) / (n - m) }`` where
    ``phi`` is the standard normal CDF.  In words: the malicious value must
    still fall within the coordinate range covered by the benign majority.
    """
    if num_clients < 2:
        raise ValueError(f"num_clients must be >= 2, got {num_clients}")
    if not 0 <= num_byzantine < num_clients:
        raise ValueError(
            f"num_byzantine must be in [0, num_clients), got {num_byzantine}"
        )
    supporters = num_clients - int(np.floor(num_clients / 2 + 1))
    denominator = num_clients - num_byzantine
    quantile = supporters / denominator
    # Guard against degenerate setups where the quantile is not in (0, 1).
    quantile = float(np.clip(quantile, 1e-6, 1 - 1e-6))
    # Imported here, its only use: scipy.stats costs about a second of
    # import time that every ``repro`` import (each spawned worker
    # included) would otherwise pay.
    from scipy.stats import norm

    return float(norm.ppf(quantile))


class LittleIsEnoughAttack(Attack):
    """LIE attack: shift every coordinate by ``z`` benign standard deviations.

    Args:
        z: the attack factor.  ``None`` means "use the maximal stealthy value"
           computed by :func:`lie_z_max` each round; the paper's default
           experiments use the fixed value 0.3.
        use_benign_statistics: when True (default), the coordinate statistics
           are estimated on the benign gradients only (the attacker knows
           which clients it controls); when False they are estimated on all
           honest gradients, matching a weaker-knowledge attacker.
    """

    name = "lie"

    def __init__(self, z: Optional[float] = 0.3, *, use_benign_statistics: bool = True):
        if z is not None and z < 0:
            raise ValueError(f"z must be non-negative, got {z}")
        self.z = z
        self.use_benign_statistics = use_benign_statistics

    def attack_factor(self, context: AttackContext) -> float:
        """The ``z`` used this round."""
        if self.z is not None:
            return self.z
        if context.num_clients < 2 or context.num_byzantine >= context.num_clients:
            # Degenerate sampled cohorts (a single reporting client, or all
            # of them Byzantine) leave the z_max formula undefined — there
            # is no benign majority to hide among, so submit the plain mean
            # (z = 0) instead of crashing the run.
            return 0.0
        return lie_z_max(context.num_clients, context.num_byzantine)

    def malicious_gradient(
        self, honest_gradients: np.ndarray, context: AttackContext
    ) -> np.ndarray:
        """The single crafted vector that every Byzantine client submits."""
        if self.use_benign_statistics:
            reference = self.benign_rows(honest_gradients, context)
            if len(reference) == 0:
                # All-Byzantine cohort (possible under partial
                # participation): the colluders' own honest gradients are
                # the only statistics left to disguise the shift with.
                reference = honest_gradients
        else:
            reference = honest_gradients
        mu = reference.mean(axis=0)
        sigma = reference.std(axis=0)
        return mu - self.attack_factor(context) * sigma

    def craft(self, honest_gradients: np.ndarray, context: AttackContext) -> np.ndarray:
        crafted = self.malicious_gradient(honest_gradients, context)
        return np.tile(crafted, (context.num_byzantine, 1))
