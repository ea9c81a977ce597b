"""Parameter selection (Section 3) and explicit color-bound formulas.

The paper optimizes the connector group size as ``t = S^(1/(x+1))`` for
CD-Coloring and ``t = Delta^(1/(x+1))`` for the star-partition; Section 5's
Corollary 5.5 chooses the recursion depth ``x`` and the H-partition slack
``q`` from ``Delta`` and the arboricity. These helpers centralize those
choices together with the exact (constant-explicit) palette bounds the test
suite asserts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from repro.errors import InvalidParameterError


def _integer_root(value: int, degree: int) -> int:
    """Exact ``floor(value ** (1/degree))`` (float roots of perfect powers
    like 64^(1/3) round down spuriously)."""
    root = max(1, int(round(value ** (1.0 / degree))))
    while (root + 1) ** degree <= value:
        root += 1
    while root > 1 and root**degree > value:
        root -= 1
    return root


def choose_t_clique(clique_size: int, x: int) -> int:
    """Section 3: ``t = floor(S^(1/(x+1)))``, clamped to at least 2."""
    if x < 1:
        raise InvalidParameterError("recursion depth x must be >= 1")
    if clique_size < 1:
        raise InvalidParameterError("clique size must be >= 1")
    return max(2, _integer_root(clique_size, x + 1))


def choose_t_star(delta: int, x: int) -> int:
    """Section 4: ``t = Delta^(1/(x+1))`` per recursion level, >= 2."""
    if x < 1:
        raise InvalidParameterError("recursion depth x must be >= 1")
    if delta < 1:
        raise InvalidParameterError("Delta must be >= 1")
    return max(2, _integer_root(delta, x + 1))


def clique_sizes_per_level(clique_size: int, t: int, x: int) -> List[int]:
    """Maximal clique size after each of the x connector levels:
    ``S, ceil(S/t), ceil(S/t^2)...`` (x+1 entries, the last is the size the
    base-case oracle sees)."""
    sizes = [clique_size]
    for _ in range(x):
        sizes.append(math.ceil(sizes[-1] / t))
    return sizes


def cd_palette_bound(diversity: int, clique_size: int, t: int, x: int) -> int:
    """Exact worst-case palette of CD-Coloring (Algorithm 1) with these
    parameters: each of the x connector colorings uses at most
    ``D*(t-1) + 1`` colors (Lemma 2.1 + [17]); the base case uses at most
    ``D*(S_x - 1) + 1`` colors, where ``S_x`` is the level-x clique size
    (Lemma 2.2). Theorem 2.6 is the asymptotic form of this product."""
    gamma = diversity * (t - 1) + 1
    s_final = clique_sizes_per_level(clique_size, t, x)[-1]
    base = diversity * (max(s_final, 1) - 1) + 1
    return gamma**x * base


def cd_target_colors(diversity: int, clique_size: int, x: int) -> int:
    """The headline bound of Theorem 3.3(i): ``D^(x+1) * S`` colors."""
    return diversity ** (x + 1) * clique_size


def star_palette_bound(delta: int, x: int) -> int:
    """Exact worst-case palette of the recursive star-partition with the
    per-level choice ``t_i = choose_t_star(Delta_i, x_i)``: the product of
    ``(2 t_i - 1)`` over levels times the base-case ``(2 Delta_x - 1)``."""
    bound = 1
    d = delta
    for level in range(x, 0, -1):
        t = choose_t_star(d, level)
        if d <= t:  # recursion bottoms out early
            break
        bound *= 2 * t - 1
        d = math.ceil(d / t)
    return bound * max(2 * d - 1, 1)


def star_target_colors(delta: int, x: int) -> int:
    """The headline bound of Theorem 4.1: ``2^(x+1) * Delta`` colors."""
    return 2 ** (x + 1) * delta


def choose_x_polylog(clique_size: int, eps: float = 1.0) -> int:
    """Section 3's polylogarithmic-time corollary: ``x = log S / (eps *
    log log S)`` recursion levels give ``2 S^(1 + 1/(eps log log S))``
    colors within ``O~((log S)^(1 + eps/2) + log* n)`` time."""
    if eps <= 0:
        raise InvalidParameterError("eps must be positive")
    if clique_size <= 4:
        return 1
    log_s = math.log2(clique_size)
    return max(1, int(round(log_s / (eps * max(1.0, math.log2(log_s))))))


@dataclass(frozen=True)
class Section5Params:
    """Parameters for the Section 5 recursion (Theorem 5.4 / Corollary 5.5)."""

    x: int
    q: float

    def __post_init__(self) -> None:
        if self.x < 1:
            raise InvalidParameterError("x must be >= 1")
        if self.q <= 2:
            raise InvalidParameterError("q must be > 2")


def choose_section5_params(delta: int, arboricity: int, c: float = 1.0) -> Section5Params:
    """Corollary 5.5's parameter choice, with practical clamps.

    When the arboricity is far below Delta (``a < Delta^(1/(4 log log
    Delta))``), the paper sets ``x = log(a_hat)`` with a large ``q``;
    otherwise ``x = log(a_hat) / (c log log a_hat)``. Both choices aim the
    per-level palette factor ``Delta^(1/x) + a_hat^(1/x) + 3`` at
    ``Delta^(1/x) * (1 + o(1))``. For the graph sizes a simulation reaches,
    unclamped formulas can exceed sensible depths, so x is clamped to keep
    every level's group size at least 2.
    """
    if delta < 1 or arboricity < 1:
        raise InvalidParameterError("delta and arboricity must be >= 1")
    q = 3.0
    a_hat = max(2.0, q * arboricity)
    log_a = math.log2(a_hat)
    loglog_a = max(1.0, math.log2(max(2.0, log_a)))
    loglog_d = max(1.0, math.log2(max(2.0, math.log2(max(2, delta)))))
    threshold = delta ** (1.0 / (4.0 * loglog_d))
    if arboricity < threshold:
        x = int(round(log_a))
    else:
        x = int(round(log_a / (c * loglog_a)))
    # Every level needs Delta^(1/x) >= 2 to make progress.
    max_x = max(1, int(math.floor(math.log2(max(2, delta)))))
    return Section5Params(x=max(1, min(x, max_x)), q=q)
