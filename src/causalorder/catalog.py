"""Small standard posets used throughout the tests and demos."""

from __future__ import annotations

import numpy as np

from .order import Causality, _closure, validate_causality

__all__ = ["from_cover_pairs", "chain", "antichain", "diamond4", "star5", "grid"]


def from_cover_pairs(points: list[str], covers: list[tuple[str, str]]) -> Causality:
    """Build a causality from its cover (Hasse) relation.

    The reflexive-transitive closure is computed here, then validated.
    """
    n = len(points)
    index = {p: i for i, p in enumerate(points)}
    rel = np.zeros((n, n), dtype=bool)
    for a, b in covers:
        rel[index[a], index[b]] = True
    return validate_causality(points, _closure(rel))


def chain(n: int, prefix: str = "") -> Causality:
    """A total order on n points named a, b, c, ... (or prefix0, prefix1...)."""
    if n <= 26 and not prefix:
        points = [chr(ord("a") + i) for i in range(n)]
    else:
        points = [f"{prefix}{i}" for i in range(n)]
    covers = [(points[i], points[i + 1]) for i in range(n - 1)]
    return from_cover_pairs(points, covers)


def antichain(n: int) -> Causality:
    """n mutually unrelated points."""
    points = [f"a{i}" for i in range(n)]
    return from_cover_pairs(points, [])


def diamond4() -> Causality:
    """p below q and r (unrelated), both below s."""
    return from_cover_pairs(
        ["p", "q", "r", "s"],
        [("p", "q"), ("p", "r"), ("q", "s"), ("r", "s")],
    )


def star5() -> Causality:
    """Five points: two minima bl, br below a middle m below two maxima tl, tr.

    This is the order induced on the events (0,0), (-1,-1), (-1,1), (1,-1),
    (1,1) of 1+1 Minkowski space.
    """
    return from_cover_pairs(
        ["bl", "br", "m", "tl", "tr"],
        [("bl", "m"), ("br", "m"), ("m", "tl"), ("m", "tr")],
    )


def grid(nu: int, nv: int) -> Causality:
    """The product order on {0..nu-1} x {0..nv-1}.

    Point (u, v) precedes (u', v') iff u <= u' and v <= v'.  Ids are the
    concatenated digits, e.g. "12" for (1, 2), unless two of them would
    coincide ((1, 11) and (11, 1) when nu, nv >= 12); then they are
    "u,v".  grid(3, 3) is the 9-point lattice used as the main
    reconstruction fixture.
    """
    u, v = (a.ravel() for a in np.meshgrid(np.arange(nu), np.arange(nv), indexing="ij"))
    points = [f"{i}{j}" for i, j in zip(u, v)]
    if len(set(points)) < len(points):
        points = [f"{i},{j}" for i, j in zip(u, v)]
    rel = (u[:, None] <= u) & (v[:, None] <= v)
    return validate_causality(points, rel)
