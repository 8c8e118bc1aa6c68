"""Empirical audits: Lipschitz ratios, faithfulness, monotonicity, convexity, star-convexity.

Each audit draws a deterministic batch of states from a seeded generator,
evaluates a measure on them (the star-convexity audit instead tests which
of their mixtures toward the star center stay free), and returns a small
report object with a ``passed`` flag plus enough detail to localize the
first failure.  All distances are trace norms of differences.  Measures
returning infinity are skipped and counted, never treated as violations.

Batches are drawn and measured as stacked arrays: the random states of a
batch come from one Gaussian draw, and the Lipschitz audit takes all of
its trace distances from one stacked eigensolve.  The stacked draw uses
the generator exactly as per-state sampling does, so the reports for a
seed are identical to those of drawing the states one by one.  Draws
whose count depends on a rejection test (the trace-ball neighbours, the
free-set samplers and the faithfulness audit's non-free states) stay per
state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .config import TOLS, check_count, check_real
from .errors import ConfigurationError, ValidationError
from .engines import discord_filtered_measure, robustness_along_ray
from .free_sets import FreeSetOracle, sample_trace_ball
from .operator_core import as_complex_matrix
from .qstates import (
    BellDiagonalParams,
    DensityMatrix,
    _random_densities,
    _require_same_dims,
    _trace_distances,
    bell_diagonal,
    random_density,
    random_unitary,
)

__all__ = [
    "AuditConfig",
    "LipschitzReport",
    "FaithfulnessReport",
    "MonotonicityReport",
    "ConvexityReport",
    "StarConvexityReport",
    "audit_lipschitz",
    "audit_faithfulness",
    "audit_monotonicity",
    "audit_convexity",
    "audit_star_convexity",
    "lipschitz_pairs",
    "ray_measure",
    "discord_filtered_measure",
    "discord_axis_endpoint_pairs",
    "channel_local_unitary",
    "channel_depolarizing",
    "channel_measure_prepare_b",
    "default_channels",
]

Measure = Callable[[DensityMatrix], float]
Channel = Callable[[DensityMatrix], DensityMatrix]

_DIM, _DIMS = 4, (2, 2)  # audits draw two-qubit states
# a batch costs time linear in its samples: at the cap one Lipschitz audit of
# the PPT ray takes a few seconds
MAX_AUDIT_SAMPLES = 1000


@dataclass(frozen=True)
class AuditConfig:
    """Batch size and seed of an audit.

    ``samples`` must be an integer in [0, MAX_AUDIT_SAMPLES] and ``seed`` an
    integer >= 0 (ValidationError otherwise).  Each measure audit reads its one
    threshold from TOLS: ``lipschitz_violation_slack``, ``audit_zero``, or
    for monotonicity and convexity twice the ray's ``ray_bisection``.
    """

    samples: int = 100
    seed: int = 0

    def __post_init__(self):
        samples = check_count("samples", self.samples, least=0, most=MAX_AUDIT_SAMPLES)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "seed", check_count("seed", self.seed, least=0))


# --- Lipschitz ---------------------------------------------------------------


@dataclass(frozen=True)
class LipschitzReport:
    L_claimed: float
    pairs_tested: int
    max_ratio: float
    worst_pair: Optional[tuple]  # (regime, rho1, rho2, m1, m2, dist)
    violations: int
    infinite_skipped: int

    @property
    def passed(self) -> bool:
        return self.violations == 0 and self.pairs_tested > 0


def lipschitz_pairs(cfg: AuditConfig) -> list[tuple[str, DensityMatrix, DensityMatrix]]:
    """Deterministic pair batch in three regimes: independent draws,
    trace-ball neighbors at two scales, and boundary-straddling pairs
    (a rank-deficient state against its slightly smoothed version)."""
    rng = np.random.default_rng(cfg.seed)
    n, d = cfg.samples, _DIM
    drawn = _states(_random_densities(d, d, rng, 2 * n))
    pairs = [("independent", a, b) for a, b in zip(drawn[::2], drawn[1::2])]
    # a ball sample draws as often as its rejection test asks, so the
    # nearby regime is drawn pair by pair
    for eps in (1e-2, 1e-3):
        for _ in range(n):
            center = random_density(d, seed=rng)
            pairs.append(
                (f"nearby[{eps:g}]", center, sample_trace_ball(center, eps, rng))
            )
    smooth = 5e-3
    edges = _random_densities(d, d - 1, rng, n)
    inner = (1.0 - smooth) * edges + smooth * np.eye(d) / d
    pairs += [
        ("boundary-straddle", e, i) for e, i in zip(_states(edges), _states(inner))
    ]
    return pairs


def _states(stack: np.ndarray) -> list[DensityMatrix]:
    """Two-qubit states of a stack of density matrices."""
    return [DensityMatrix(m, _DIMS, validate=False) for m in stack]


def audit_lipschitz(
    measure: Measure,
    L: float,
    cfg: AuditConfig,
    pairs: Optional[Sequence[tuple[str, DensityMatrix, DensityMatrix]]] = None,
) -> LipschitzReport:
    """Check |m(rho1) - m(rho2)| <= L * D(rho1, rho2) over a pair batch,
    with D the trace distance.

    A pair counts as a violation when the ratio exceeds L by more than the
    relative slack; pairs with an infinite value on either side, or with
    negligible distance, are skipped and counted separately.  ``L`` must be
    finite and >= 0 (ValidationError otherwise).

    The distances of the whole batch come from one stacked eigensolve;
    each pair must have equal dims and a Hermitian difference
    (ValidationError otherwise).
    """
    L = check_real("L", L, 0.0, ends="[)")
    if pairs is None:
        pairs = lipschitz_pairs(cfg)

    dists = _trace_distances([r1 for _, r1, _ in pairs], [r2 for _, _, r2 in pairs]).tolist()
    ends = [(measure(r1), measure(r2)) for _, r1, r2 in pairs]
    tested = violations = skipped = 0
    max_ratio = 0.0
    worst = None
    for (regime, r1, r2), (m1, m2), dist in zip(pairs, ends, dists):
        if not (math.isfinite(m1) and math.isfinite(m2)) or dist <= TOLS.audit_zero:
            skipped += 1
            continue
        tested += 1
        ratio = abs(m1 - m2) / dist
        if ratio > max_ratio:
            max_ratio = ratio
            worst = (regime, r1, r2, m1, m2, dist)
        if ratio > L * (1.0 + TOLS.lipschitz_violation_slack):
            violations += 1
    return LipschitzReport(
        L_claimed=L,
        pairs_tested=tested,
        max_ratio=max_ratio,
        worst_pair=worst,
        violations=violations,
        infinite_skipped=skipped,
    )


def ray_measure(sigma: DensityMatrix, oracle: FreeSetOracle) -> Measure:
    """Measure adapter: robustness along the ray toward a fixed noise state."""

    def m(rho: DensityMatrix) -> float:
        return robustness_along_ray(rho, sigma, oracle).value

    return m


# --- faithfulness ------------------------------------------------------------


@dataclass(frozen=True)
class FaithfulnessReport:
    free_checked: int
    nonfree_checked: int
    free_nonzero: int  # free states with measure above the zero threshold
    nonfree_zero: int  # non-free states with measure at or below it
    worst_free_value: float

    @property
    def passed(self) -> bool:
        return (
            self.free_nonzero == 0
            and self.nonfree_zero == 0
            and self.free_checked > 0
            and self.nonfree_checked > 0
        )


def audit_faithfulness(
    measure: Measure, oracle: FreeSetOracle, cfg: AuditConfig
) -> FaithfulnessReport:
    """Check measure = 0 exactly on free samples and > 0 off the set."""
    if oracle.sampler is None:
        raise ConfigurationError(f"oracle {oracle.name!r} has no sampler to audit with")
    rng = np.random.default_rng(cfg.seed)
    free = [oracle.sampler(rng) for _ in range(cfg.samples)]
    nonfree = []
    attempts = 0
    while len(nonfree) < cfg.samples and attempts < 100 * cfg.samples:
        attempts += 1
        rho = random_density(_DIM, seed=rng)
        if not oracle.member(rho):
            nonfree.append(rho)
    free_vals = [measure(rho) for rho in free]
    nonfree_vals = [measure(rho) for rho in nonfree]
    free_nonzero = sum(1 for v in free_vals if v > TOLS.audit_zero)
    nonfree_zero = sum(1 for v in nonfree_vals if v <= TOLS.audit_zero)
    return FaithfulnessReport(
        free_checked=len(free),
        nonfree_checked=len(nonfree),
        free_nonzero=free_nonzero,
        nonfree_zero=nonfree_zero,
        worst_free_value=max(free_vals, default=0.0),
    )


# --- monotonicity ------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MonotonicityReport:
    channels: tuple[str, ...]
    checked: int
    violations: int
    per_channel: dict[str, int]
    worst_increase: float = 0.0
    infinite_skipped: int = 0

    @property
    def passed(self) -> bool:
        return self.violations == 0 and self.checked > 0


def _unitary(name: str, u) -> np.ndarray:
    """``u`` as a complex matrix if it is square, finite and unitary, with
    max |U^dag U - 1| at most TOLS.hermiticity; ValidationError otherwise."""
    u = as_complex_matrix(u)
    dev = float(np.abs(u.conj().T @ u - np.eye(len(u))).max(initial=0.0))
    if dev > TOLS.hermiticity:
        raise ValidationError(
            f"{name} is not unitary: max |U^dag U - 1| = {dev:.3e} exceeds {TOLS.hermiticity:.1e}"
        )
    return u


def channel_local_unitary(u_a: np.ndarray, u_b: np.ndarray) -> Channel:
    """rho -> (u_a x u_b) rho (u_a x u_b)^dag on states of dims (d_a, d_b),
    the sizes of the two factors.  Each factor must be a square, finite,
    unitary matrix, and each state must have these dims (ValidationError
    otherwise)."""
    u_a, u_b = _unitary("u_a", u_a), _unitary("u_b", u_b)
    dims = (len(u_a), len(u_b))
    u = np.kron(u_a, u_b)

    def ch(rho: DensityMatrix) -> DensityMatrix:
        if rho.dims != dims:
            raise ValidationError(f"local unitaries act on dims {dims}, got dims {rho.dims}")
        return DensityMatrix(u @ rho.mat @ u.conj().T, rho.dims, validate=False)

    return ch


def channel_depolarizing(q: float) -> Channel:
    """rho -> (1 - q) rho + q 1/d, for q in [0, 1] (ValidationError otherwise)."""
    q = check_real("depolarizing weight", q, 0.0, 1.0, "[]")

    def ch(rho: DensityMatrix) -> DensityMatrix:
        d = rho.dim
        return DensityMatrix(
            (1.0 - q) * rho.mat + q * np.eye(d) / d, rho.dims, validate=False
        )

    return ch


def channel_measure_prepare_b() -> Channel:
    """Projective measurement on side B in the computational basis,
    followed by re-preparation in the same basis; a state that is not
    bipartite raises ValidationError."""

    def ch(rho: DensityMatrix) -> DensityMatrix:
        if len(rho.dims) != 2:
            raise ValidationError(f"measure-prepare needs a bipartite state, got dims {rho.dims}")
        # sum_j (1 x |j><j|) rho (1 x |j><j|) keeps the entries
        # rho[(a, b), (a', b')] with b = b' and zeroes the rest
        d_a, d_b = rho.dims
        same_b = np.eye(d_b, dtype=bool)[:, None, :]  # broadcasts over (b, a', b')
        out = np.where(same_b, rho.mat.reshape(d_a, d_b, d_a, d_b), 0.0)
        return DensityMatrix(out.reshape(rho.mat.shape), rho.dims, validate=False)

    return ch


def default_channels(seed: int = 0) -> list[tuple[str, Channel]]:
    return [
        (
            "local-unitary",
            channel_local_unitary(random_unitary(2, seed), random_unitary(2, seed + 1)),
        ),
        ("depolarizing[0.3]", channel_depolarizing(0.3)),
        ("measure-prepare-B", channel_measure_prepare_b()),
    ]


def audit_monotonicity(
    measure: Measure,
    channels: Sequence[tuple[str, Channel]],
    oracle: FreeSetOracle,
    cfg: AuditConfig,
) -> MonotonicityReport:
    """Check measure(channel(rho)) <= measure(rho) for free-set-preserving
    channels.

    Each channel is first probed on free samples; one that maps a free
    state out of the set cannot certify anything about the measure and
    raises ConfigurationError instead of producing misleading counts.
    """
    if oracle.sampler is None:
        raise ConfigurationError(f"oracle {oracle.name!r} has no sampler to audit with")
    rng = np.random.default_rng(cfg.seed)
    probes = [oracle.sampler(rng) for _ in range(min(cfg.samples, 16))]
    for name, ch in channels:
        for p in probes:
            if not oracle.member(ch(p)):
                raise ConfigurationError(
                    f"channel {name!r} maps a free state out of {oracle.name!r}; "
                    f"monotonicity against it is not meaningful"
                )
    states = _states(_random_densities(_DIM, _DIM, rng, cfg.samples))
    base_vals = [measure(s) for s in states]
    checked = violations = skipped = 0
    worst = 0.0
    per_channel = {name: 0 for name, _ in channels}
    for name, ch in channels:
        out_vals = [measure(ch(s)) for s in states]
        for v0, v1 in zip(base_vals, out_vals):
            if not (math.isfinite(v0) and math.isfinite(v1)):
                skipped += 1
                continue
            checked += 1
            inc = v1 - v0
            worst = max(worst, inc)
            if inc > 2.0 * TOLS.ray_bisection:
                violations += 1
                per_channel[name] += 1
    return MonotonicityReport(
        channels=tuple(name for name, _ in channels),
        checked=checked,
        violations=violations,
        per_channel=per_channel,
        worst_increase=worst,
        infinite_skipped=skipped,
    )


# --- convexity ---------------------------------------------------------------


# mixing weights of every convexity check
_CONVEXITY_LAMBDAS = (0.25, 0.5, 0.75)


@dataclass(frozen=True)
class ConvexityReport:
    checked: int
    violations: int
    worst_gap: float
    first_violation: Optional[tuple]  # (rho1, rho2, lam, lhs, rhs)
    infinite_skipped: int = 0  # (pair, lam) checks with an infinite value

    @property
    def passed(self) -> bool:
        return self.violations == 0 and self.checked > 0


def discord_axis_endpoint_pairs() -> list[tuple[DensityMatrix, DensityMatrix]]:
    """Pairs of zero-discord single-axis states whose mixtures carry two
    nonzero correlations; any faithful discord measure is non-convex here."""
    pairs = []
    for i, j in ((0, 1), (0, 2), (1, 2)):
        ci, cj = [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]
        ci[i] = 1.0
        cj[j] = 1.0
        pairs.append(
            (bell_diagonal(BellDiagonalParams(*ci)), bell_diagonal(BellDiagonalParams(*cj)))
        )
    return pairs


def audit_convexity(
    measure: Measure,
    cfg: AuditConfig,
    extra_pairs: Sequence[tuple[DensityMatrix, DensityMatrix]] = (),
) -> ConvexityReport:
    """Check measure(lam*rho1 + (1-lam)*rho2) <= lam*m1 + (1-lam)*m2.

    ``extra_pairs`` are checked ahead of the random batch, so deliberate
    counterexample constructions appear in the report deterministically;
    each must have equal dims (ValidationError otherwise).
    """
    for r1, r2 in extra_pairs:
        _require_same_dims(r1, r2)
    rng = np.random.default_rng(cfg.seed)
    drawn = _states(_random_densities(_DIM, _DIM, rng, 2 * cfg.samples))
    pairs = list(extra_pairs) + list(zip(drawn[::2], drawn[1::2]))
    ends = [(measure(r1), measure(r2)) for r1, r2 in pairs]
    checked = violations = skipped = 0
    worst = -math.inf
    first = None
    for (r1, r2), (m1, m2) in zip(pairs, ends):
        if not (math.isfinite(m1) and math.isfinite(m2)):
            skipped += len(_CONVEXITY_LAMBDAS)
            continue
        for lam in _CONVEXITY_LAMBDAS:
            mix = DensityMatrix(
                lam * r1.mat + (1.0 - lam) * r2.mat, r1.dims, validate=False
            )
            lhs = measure(mix)
            if not math.isfinite(lhs):
                skipped += 1
                continue
            checked += 1
            rhs = lam * m1 + (1.0 - lam) * m2
            gap = lhs - rhs
            worst = max(worst, gap)
            if gap > 2.0 * TOLS.ray_bisection:
                violations += 1
                if first is None:
                    first = (r1, r2, lam, lhs, rhs)
    return ConvexityReport(
        checked=checked,
        violations=violations,
        worst_gap=worst,
        first_violation=first,
        infinite_skipped=skipped,
    )


# --- star-convexity ----------------------------------------------------------


# mixing weights toward the star center of every star-convexity check
_STAR_DELTAS = tuple((j + 1) / 11 for j in range(10))


@dataclass(frozen=True)
class StarConvexityReport:
    checked: int
    violations: int
    first_violation: Optional[str]

    @property
    def passed(self) -> bool:
        return self.violations == 0 and self.checked > 0


def audit_star_convexity(oracle: FreeSetOracle, cfg: AuditConfig) -> StarConvexityReport:
    """Check that (1 - delta) * member + delta * center stays in the set for
    each sampled member and each delta in _STAR_DELTAS, center the oracle's
    star center.  A sample that is not a member is one violation and is not
    mixed.  The oracle needs a star center and a sampler (ConfigurationError
    otherwise), and each sample the center's dims (ValidationError otherwise)."""
    center = oracle.star_center
    if center is None:
        raise ConfigurationError(f"oracle {oracle.name!r} has no star center")
    if oracle.sampler is None:
        raise ConfigurationError(f"oracle {oracle.name!r} has no sampler to audit with")
    rng = np.random.default_rng(cfg.seed)
    checked = violations = 0
    first = None
    for i in range(cfg.samples):
        member = oracle.sampler(rng)
        _require_same_dims(member, center)
        if not oracle.member(member):
            violations += 1
            first = first or f"sample {i}: sampler output is not a member"
            continue
        for delta in _STAR_DELTAS:
            checked += 1
            mix = (1.0 - delta) * member.mat + delta * center.mat
            if not oracle.member(DensityMatrix(mix, member.dims, validate=False)):
                violations += 1
                first = first or f"sample {i}, delta {delta:.3f}: mixture left the set"
    return StarConvexityReport(checked=checked, violations=violations, first_violation=first)
