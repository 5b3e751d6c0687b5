"""Quadratic client loss families with analytically known constants.

A problem is stored as arrays: one curvature (d,) shared by all clients and
an (n, d) array of client centers, so client k holds
sum_j a_j ([w]_j - [b_k]_j)^2.  Every family also uses the same curvature on
every coordinate, so the smoothness constant L, the gradient-dominance
constant mu, the honest-gradient dispersion G^2 and the minimum value
l_star all have exact closed forms, and the dispersion is independent of
the evaluation point.  L = 2 max(a) and mu = 2 min(a) are derived from the
curvature; each factory passes G^2 and l_star, which are checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConstructionError, ParameterError, check, clients_error, count_error, regime_error


@dataclass(frozen=True)
class Problem:
    """n quadratic client losses sum_j a_j ([w]_j - [b_k]_j)^2 sharing one
    curvature a, with client k's center b_k in row k of ``centers``; the
    clients outside ``honest_set`` are Byzantine.  Also holds the
    closed-form constants of the honest objective (L and mu derived from the
    curvature, G2 and l_star given and checked), and both client sets as
    read-only intp index arrays, built once."""

    f: int
    honest_set: tuple      # None means the first n - f clients
    curvature: np.ndarray  # (d,), positive
    centers: np.ndarray    # (n, d)
    G2: float
    l_star: float
    descriptor: dict = field(default_factory=dict)
    # derived from curvature and honest_set at construction
    L: float = field(init=False, compare=False)   # 2 max(curvature)
    mu: float = field(init=False, compare=False)  # 2 min(curvature)
    slope: np.ndarray = field(init=False, repr=False, compare=False)  # 2 curvature, read-only: grad = slope (w - b_k)
    byzantine_set: tuple = field(init=False, repr=False, compare=False)         # the other clients, sorted
    honest_index: np.ndarray = field(init=False, repr=False, compare=False)     # honest_set as intp
    byzantine_index: np.ndarray = field(init=False, repr=False, compare=False)  # byzantine_set as intp

    def __post_init__(self):
        curvature = np.array(self.curvature, dtype=np.float64, ndmin=1)
        centers = np.array(self.centers, dtype=np.float64)
        if centers.ndim != 2 or centers.shape[1:] != curvature.shape:
            raise ConstructionError("centers must have shape (n, d) with d = len(curvature)")
        if not np.all(curvature > 0):
            raise ConstructionError("curvature must be positive")
        if not np.all(np.isfinite(centers)):
            raise ConstructionError("centers must be finite")
        for name, value in (("curvature", curvature), ("centers", centers)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "L", 2.0 * float(curvature.max()))
        object.__setattr__(self, "mu", 2.0 * float(curvature.min()))
        slope = 2.0 * curvature
        slope.setflags(write=False)
        object.__setattr__(self, "slope", slope)
        honest_set = _honest_set(self.n, self.f, self.honest_set)
        byzantine_set = tuple(sorted(set(range(self.n)) - set(honest_set)))
        object.__setattr__(self, "honest_set", honest_set)
        object.__setattr__(self, "byzantine_set", byzantine_set)
        for name, clients in (("honest_index", honest_set), ("byzantine_index", byzantine_set)):
            index = np.array(clients, dtype=np.intp)
            index.setflags(write=False)
            object.__setattr__(self, name, index)
        _verify_constants(self)

    @property
    def n(self) -> int:
        return self.centers.shape[0]

    @property
    def d(self) -> int:
        return self.centers.shape[1]


def _verify_constants(p: Problem) -> None:
    """Recompute the given constants G2 and l_star from the arrays and
    compare; catches construction bugs at the source."""
    a = p.curvature
    spread = p.centers[p.honest_index]
    spread = spread - spread.mean(axis=0)
    l_star = float(np.sum(a * (spread ** 2).mean(axis=0)))
    g2 = float(np.sum(4.0 * a ** 2 * (spread ** 2).mean(axis=0)))
    for name, (given, computed) in {"G2": (p.G2, g2), "l_star": (p.l_star, l_star)}.items():
        tol = 1e-9 * (1.0 + abs(computed))
        if abs(given - computed) > tol:
            raise ConstructionError(
                f"constant {name}={given} does not match value {computed} recomputed from the losses"
            )


def _honest_set(n: int, f: int, honest_set) -> tuple:
    """The given honest set as plain ints, after checking that the integer
    f keeps 0 <= f < n/2 and that the set holds n - f distinct integer
    indices in [0, n) (a bool or a float is not one); by default the first
    n - f, so Byzantine clients are the last f."""
    check(count_error("f", f, n=n))
    honest_set = tuple(range(n - f)) if honest_set is None else tuple(honest_set)
    check(clients_error("honest_set", honest_set, n, size=n - f))
    return tuple(map(int, honest_set))


def two_group_quadratic_problem(n: int, f: int, f_hat: int, G: float = 1.0, honest_set=None) -> Problem:
    """Scalar worst-case family: f_hat clients hold c*G*(w+1)^2, the other
    n - f_hat hold c*G*w^2, with c chosen so the honest-gradient dispersion
    equals G^2 exactly.

    Under any aggregator that collapses on the n - f_hat identical uploads,
    runs on this family converge to a point whose gradient metric equals the
    heterogeneity floor f_hat*G^2/(n - f - f_hat).
    """
    check(regime_error(n, f, f_hat) or count_error("f_hat", f_hat, lo=1))  # the construction needs f_hat >= 1
    if G <= 0:
        raise ParameterError("G must be positive")
    c = (n - f) / (2.0 * np.sqrt(f_hat * (n - f - f_hat)))
    a = c * G
    return Problem(
        f=f,
        honest_set=honest_set,
        curvature=[a],
        centers=np.where(np.arange(n) < f_hat, -1.0, 0.0)[:, None],
        G2=G * G,
        l_star=c * G * f_hat * (n - f - f_hat) / (n - f) ** 2,
        descriptor={"kind": "two_group_quadratic", "n": n, "f": f, "f_hat": f_hat, "G": G},
    )


def homogeneous_quadratic_problem(n: int, f: int = 0, honest_set=None) -> Problem:
    """Every client holds w^2/2; zero heterogeneity, L = mu = 1, l_star = 0."""
    check(count_error("n", n, lo=1) or count_error("f", f, n=n))  # before n shapes the centers
    return Problem(
        f=f,
        honest_set=honest_set,
        curvature=[0.5],
        centers=np.zeros((n, 1)),
        G2=0.0,
        l_star=0.0,
        descriptor={"kind": "homogeneous_quadratic", "n": n, "f": f},
    )


def random_quadratic_problem(
    n: int, f: int, d: int = 1, G_target: float = 1.0, radius: float = 1.0, *, seed: int, honest_set=None
) -> Problem:
    """Seeded fuzz family: one shared curvature drawn from [0.5, 2], client
    centers drawn in a ball of the given radius, then rescaled about the
    honest mean so the honest-gradient dispersion equals G_target^2 exactly.

    The curvature is a single scalar across coordinates so that the
    gradient-dominance identity hot path stays an exact equality.  ``seed``
    is keyword-only and has no default, so no instance is unseeded.
    """
    check(count_error("n", n) or count_error("d", d, lo=1))
    honest_set = _honest_set(n, f, honest_set)  # f's rule too, before n and f shape the draw
    if G_target < 0:
        raise ParameterError("G_target must be >= 0")
    rng = np.random.default_rng(seed)
    a = float(rng.uniform(0.5, 2.0))
    directions = rng.standard_normal((n, d))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    radii = radius * rng.random(n) ** (1.0 / d)
    centers = radii[:, None] * directions

    honest_centers = centers[list(honest_set)]
    center_mean = honest_centers.mean(axis=0)
    dispersion = float(np.sum(4.0 * a * a * ((honest_centers - center_mean) ** 2).mean(axis=0)))
    if G_target == 0.0:
        centers = np.tile(center_mean, (n, 1))
    else:
        if dispersion == 0.0:
            raise ConstructionError("all honest centers coincide; cannot rescale to G_target > 0")
        s = G_target / np.sqrt(dispersion)
        centers = center_mean + s * (centers - center_mean)

    honest_centers = centers[list(honest_set)]
    spread = honest_centers - honest_centers.mean(axis=0)
    return Problem(
        f=f,
        honest_set=honest_set,
        curvature=np.full(d, a),
        centers=centers,
        G2=float(np.sum(4.0 * a * a * (spread ** 2).mean(axis=0))),
        l_star=float(np.sum(a * (spread ** 2).mean(axis=0))),
        descriptor={
            "kind": "random_quadratic",
            "n": n,
            "f": f,
            "d": d,
            "G_target": G_target,
            "radius": radius,
            "seed": seed,
        },
    )


def descend(p: Problem, clients, w, gamma: float, steps: int) -> np.ndarray:
    """Run ``steps`` plain gradient-descent updates from ``w`` on each listed
    client's own loss; row i of the result belongs to ``clients[i]``, which
    may be a sequence or an index array such as ``p.honest_index``."""
    centers = p.centers.take(clients, axis=0)
    out = np.empty(centers.shape)
    out[...] = w  # one copy of w per client
    return local_update(out, centers, p.slope, gamma, steps)


def local_update(x, centers, slope, gamma, steps: int):
    """``steps`` plain gradient-descent updates of the points ``x`` on the
    losses with the given ``centers`` and slope 2a, all broadcast against
    each other: each step is x - gamma * (2a * (x - b_k)), rounded in that
    order.  The engine takes every client of every run of a batch in one
    call, with (R, 1, d) iterates, (R, n, d) centers, (R, 1, d) slopes and
    (R, 1, 1) stepsizes.  Returns ``x`` itself when ``steps`` is 0."""
    for _ in range(steps):
        x = x - gamma * (slope * (x - centers))
    return x


def honest_objective(p: Problem, w):
    """Value and gradient of the average honest loss: a float and a (d,)
    array at one point ``w`` (a scalar or a (d,) array), or (k,) values and
    (k, d) gradients at each row of a (k, d) block ``w``.

    Each honest client's (k,) value terms and (k, d) gradient terms are added
    onto running sums one client after another, in honest-set order (not
    numpy's pairwise sum), so every row is the same to the bit as a
    client-by-client sum at that row's point, whatever k is, and the work
    needs O(k*d) memory.  A value or gradient that overflows becomes inf
    without a warning; the engine reports it as divergence."""
    w = np.asarray(w, dtype=np.float64)
    block = np.atleast_2d(w)
    two_a = p.slope
    with np.errstate(over="ignore"):
        for i, center in enumerate(p.centers[p.honest_index]):
            diff = block - center
            value, grad = (p.curvature * diff ** 2).sum(axis=1), two_a * diff
            if i == 0:
                values, grads = value, grad
            else:
                values += value
                grads += grad
    m = p.honest_index.shape[0]
    values, grads = values / m, grads / m
    if w.ndim < 2:
        return float(values[0]), grads[0]
    return values, grads


def heterogeneity_at(p: Problem, w) -> float:
    """Mean squared deviation of honest gradients from their average at ``w``."""
    w = np.atleast_1d(np.asarray(w, dtype=np.float64))
    grads = 2.0 * p.curvature * (w - p.centers[p.honest_index])
    return float(((grads - grads.mean(axis=0)) ** 2).sum(axis=1).mean())
