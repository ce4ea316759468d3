"""Kendall's rank correlation, shared by the experiment scripts."""

import math


def kendall_tau(a, b):
    """Tau-b with tie correction; 0.0 when either list is fully tied."""
    n = len(a)
    concordant = discordant = 0
    ties_a = ties_b = 0
    for i in range(n):
        for j in range(i + 1, n):
            da = a[i] - a[j]
            db = b[i] - b[j]
            if da == 0 and db == 0:
                ties_a += 1
                ties_b += 1
            elif da == 0:
                ties_a += 1
            elif db == 0:
                ties_b += 1
            elif (da > 0) == (db > 0):
                concordant += 1
            else:
                discordant += 1
    total = n * (n - 1) / 2
    denom = math.sqrt((total - ties_a) * (total - ties_b))
    if denom == 0.0:
        return 0.0
    return (concordant - discordant) / denom
