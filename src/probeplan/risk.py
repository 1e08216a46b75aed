"""Tail-risk estimation for candidate ego plans: Monte-Carlo rollout cost
sampling per behavior mode and CVaR (average of the worst alpha-fraction
of sampled costs, Rockafellar & Uryasev 2000).

The per-sample cost is a discounted sum over the horizon of a proximity
term (exponential in the inter-vehicle center distance) and a progress
deficit term (shortfall of ego speed below a reference), so both collision
pressure and dawdling register in the tail statistics.

This module is the one rollout/CVaR kernel every planner runs. The human
rollouts are a fixed scenario set per run: ``draw_human_paths`` draws every
mode's arc lengths and their per-step extremes once (one standard normal
draw per mode from the mode's own stream, scaled and shifted in place,
then one clamp and integration over all modes), as no part of them depends
on the state. What does not depend on the candidate acceleration is built
once per step: the ego headings (``planner.lane_guidance`` returns them
with its yaw), the human paths as one block of x and y planes along the
human's current heading from its current position and their
``sample_boxes`` from the extremes (``place_human_paths``), the discount
weights and the bases of the ego paths.

Composed ego paths. Until a speed reaches zero the ego path is affine in
the accelerations, so under a piecewise-constant sequence (one value per
solver segment) it is the coasting path plus, per segment, the path from
rest under the segment's indicator times the segment's value. The planner
builds these bases once per step with two ``simulate_ego_path`` calls and
composes a round's paths from them with one multiply-add per segment, in
segment order, so each row is its own composition at any row count. A row
whose composed speeds reach zero or hold a NaN takes ``simulate_ego_path``
itself, the reflected walk below; the composition differs from the
kernel's cumulative sums only in rounding.
``path_costs`` takes ego rows (R, T) against one mode's paths, or one ego
path against several modes' paths, so a solver round scores its
(segment vector, mode) pairs with one ``path_costs`` block per mode (the
conservative planner: one per vector, over its solved modes) and one
``cvar``. Every kernel reproduces a plain sequential loop per ego path and
mode bit for bit: cumulative sums run in order, the element operations
are the same ones in the same order, and each (ego path, mode) block's
discounted sums are its own matrix-vector product.

Gradients. The ego speeds clamp at zero as a reflected walk: with S the
unclamped partial sums of the start speed and ``a_k * dt``, speed t is
``S_t - min(0, min_{1<=k<=t} S_k)`` (``simulate_ego_path``: array operations,
no per-row loop, and a NaN stays NaN). It rounds differently from the
step-by-step clamp once a speed has reached zero, by at most a few ulp of
the partial sums. Between zeros the path is linear in the accelerations,
and at a zero the walk starts again, so no acceleration before it moves a
later speed; that gives its (sub)gradient as arrays too
(``ego_path_gradient``). The CVaR's gradient is the mean cost gradient over
the tail samples (Hong & Liu, "Simulating Sensitivities of Conditional
Value at Risk", Management Science 2009): ``cvar_tail`` names the samples
``cvar`` averages, ``path_cost_gradient`` gives their cost gradient in
each step's ego position and speed, and ``ego_path_gradient`` carries it
back to the accelerations.

Certificate below the cap. CVaR at any level is at most the largest sample
cost (Rockafellar & Uryasev 2000), and a sample's cost at step t only grows
as the human comes closer to the ego. The point of the samples' bounding
box (``sample_boxes``, per mode and step) nearest to the ego is at least as
close as any sample, so ``path_cost_bounds``, the same per-element cost
taken at that point, bounds every sample's ``path_costs`` from above: the
subtractions, squares, square root and the affine map before ``exp`` are
monotone in floating point, so only ``exp`` and the discounted dot can
round the other way, by a few ulp. A planner that needs a CVaR only to see
whether it exceeds the cap may skip the exact value where the bound is
below the cap by a relative margin far wider than that rounding
(``CERTIFY_MARGIN``).

Floor. Once some samples are known to be costly (say the tail of a nearby
ego path), ``path_cost_means`` takes the mean cost of as many samples as
the tail holds, or more: the CVaR, the mean of the largest costs, is at
least it, up to the same ulp-level rounding of ``exp`` and the discounted
dot. A planner that needs a CVaR only to see whether it beats a bar may
skip the exact value where a floor, less the same relative margin, already
loses to the bar; a NaN floor skips nothing.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import InvalidInputError

if TYPE_CHECKING:  # import only for annotations
    from .belief import ModeTarget

# Cost functional constants: safety distance, proximity length scale, and
# the two term weights. Proximity dominates so tail risk is collision-led.
D_SAFE = 3.0
PROX_SCALE = 2.0
W_PROX = 10.0
W_PROGRESS = 1.0

# Relative margin below the cap a cost bound must keep to certify a CVaR,
# and that a cost floor gives up to bound one from below: it covers the
# ulp-level rounding in ``exp`` and the discounted dot, which is about
# 1e-14 relative at any horizon the planner runs.
CERTIFY_MARGIN = 1e-9


@functools.lru_cache(maxsize=256)
def tail_sample_count(alpha: float, n: int) -> int:
    """m = max(1, ceil(alpha * n)) with an exact rational ceiling.

    Uses the nearest small rational to alpha so float artifacts such as
    0.2 * 10 = 2.0000000000000004 cannot flip the boundary. Cached: a run
    asks for the same (alpha, n) at every evaluation.
    """
    if not 0.0 < alpha <= 1.0:
        raise InvalidInputError(f"alpha must lie in (0, 1], got {alpha}")
    frac = Fraction(alpha).limit_denominator(10**6)
    return max(1, math.ceil(frac * n))


def cvar(costs: np.ndarray, alpha: float) -> float | np.ndarray:
    """Average of the worst ceil(alpha * S) costs along the last (sample)
    axis: a float for costs (S,), one value per row for costs (K, S).

    Only the tail is sorted: ``np.partition`` moves the m largest costs to
    the end, and their mean is taken in descending order, the order a full
    descending sort sums them in. NaN costs count as the largest.
    """
    costs = np.asarray(costs, dtype=float)
    if costs.ndim not in (1, 2) or costs.size == 0:
        raise InvalidInputError("costs must be a non-empty vector or stack of vectors")
    n = costs.shape[-1]
    m = tail_sample_count(alpha, n)
    tail = np.sort(np.partition(costs, n - m, axis=-1)[..., n - m:], axis=-1)
    # The sum over the count, as np.mean takes it.
    out = tail[..., ::-1].sum(axis=-1) / m
    return float(out) if costs.ndim == 1 else out


def cvar_tail(costs: np.ndarray, alpha: float) -> np.ndarray:
    """Sample indices (..., m) of the ceil(alpha * S) largest costs along
    the last axis: the tail ``cvar`` averages (among ties, some of the tied
    samples), so the CVaR's gradient is the mean of their cost gradients
    (Hong & Liu 2009)."""
    n = costs.shape[-1]
    m = tail_sample_count(alpha, n)
    return np.argpartition(costs, n - m, axis=-1)[..., n - m:]


def simulate_ego_path(
    ego, accel: np.ndarray, headings: np.ndarray, dt: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Roll a vehicle ``ego`` forward under an acceleration sequence (T,)
    along precomputed ``headings`` (2, T). Any vehicle rolls: the planner
    also projects the human with it.

    Returns post-step x (T,), y (T,) and speeds (T,). Sequences (K, T) give
    (K, T) each, row k equal to sequence k's own call. Matches
    dynamics.step_vehicle (speed clamped at zero; bit for bit while it does
    not clamp, within the rounding of the partial sums after); used inside
    solver-hot loops.
    """
    accel = np.asarray(accel, dtype=float)
    if accel.ndim not in (1, 2) or accel.shape[-1:] != headings.shape[1:]:
        raise InvalidInputError(
            f"acceleration {accel.shape} does not match headings {headings.shape}"
        )
    lead = accel.shape[:-1]
    t_steps = accel.shape[-1]
    v = np.empty(lead + (t_steps + 1,))
    v[..., 0] = ego.v
    np.multiply(accel, dt, out=v[..., 1:])
    # np.add.accumulate is np.cumsum without its Python wrappers.
    np.add.accumulate(v, axis=-1, out=v)
    if not v[..., 1:].min(initial=math.inf) > 0.0:
        # Some sum reaches zero (or is NaN): the clamped speeds are the
        # reflected walk S_t - min(0, min_{1<=k<=t} S_k). Rows that stay
        # positive subtract 0.0 and keep their bits; a NaN stays NaN. Adding
        # 0.0 maps -0.0 to 0.0, as the clamp max(0.0, .) does.
        low = np.minimum.accumulate(v[..., 1:], axis=-1)
        v[..., 1:] -= np.minimum(low, 0.0, out=low)
        v[..., 1:] += 0.0
    pos = np.empty(lead + (2, t_steps + 1))
    pos[..., 0, 0] = ego.x
    pos[..., 1, 0] = ego.y
    np.multiply(v[..., None, :-1], headings, out=pos[..., 1:])
    pos[..., 1:] *= dt
    np.add.accumulate(pos, axis=-1, out=pos)
    return pos[..., 0, 1:], pos[..., 1, 1:], v[..., 1:]


def draw_human_paths(
    modes: Sequence[ModeTarget], n_samples: int, t_steps: int, dt: float,
    rngs: Sequence[np.random.Generator],
) -> tuple[np.ndarray, np.ndarray]:
    """Sampled human arc lengths (M, n_samples, t_steps), one block per
    mode of ``modes``, each drawn from its own ``rngs`` entry, and their
    per-step extremes (M, 2, t_steps): the least and the largest arc over
    the samples. ``place_human_paths`` turns both into positions.

    Per-step longitudinal speeds are drawn i.i.d. from each mode target's
    velocity marginal (clamped at zero; the human does not reverse) and
    integrated. Each mode fills its own block with a standard normal draw,
    scaled and shifted in place: the ``loc + scale * z`` that ``normal``
    takes per element. The clamp and the integration then run once over
    every mode, element by element as they would per mode. Nothing here
    depends on the human's state, so a planner draws once per run.
    """
    speeds = np.empty((len(modes), n_samples, t_steps))
    for block, mode, rng in zip(speeds, modes, rngs, strict=True):
        rng.standard_normal(out=block)
        block *= math.sqrt(float(mode.target.cov[0, 0]))
        block += float(mode.target.mean[0])
    np.maximum(0.0, speeds, out=speeds)
    speeds *= dt
    arcs = np.cumsum(speeds, axis=2, out=speeds)
    return arcs, np.stack((arcs.min(axis=1), arcs.max(axis=1)), axis=1)


def place_human_paths(
    human, arcs: np.ndarray, extremes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Human positions as x and y planes (M, 2, S, T) at arc lengths
    ``arcs`` (M, S, T) along ``human``'s current heading from its current
    position, and their ``sample_boxes`` (M, 4, T) from the arcs'
    ``extremes`` (M, 2, T), both as ``draw_human_paths`` gives them."""
    planes = np.empty((len(arcs), 2) + arcs.shape[1:])
    np.multiply(arcs, math.cos(human.theta), out=planes[:, 0])
    np.multiply(arcs, math.sin(human.theta), out=planes[:, 1])
    planes[:, 0] += human.x
    planes[:, 1] += human.y
    return planes, sample_boxes(human, extremes)


def path_costs(
    ego_x: np.ndarray,
    ego_y: np.ndarray,
    ego_speeds: np.ndarray,
    human: np.ndarray,
    weights: np.ndarray,
    ref_speed: float,
) -> np.ndarray:
    """Discounted per-sample costs (S,) for an ego path (x, y and speeds,
    each (T,)) against sampled human paths (2, S, T), with per-step
    discount ``weights`` (T,). Ego rows (R, T) against one mode's paths
    give costs (R, S); one ego path against the paths (K, 2, S, T) of K
    modes gives (K, S). Each row equals its own call."""
    # Ego rows meet one mode's paths; one ego path may meet a stack of modes.
    shapes_match = human.shape[-3:-2] == (2,) and human.shape[-1:] == ego_x.shape[-1:]
    if not shapes_match or ego_x.ndim + human.ndim > 5:
        raise InvalidInputError(f"ego path {ego_x.shape} does not match human paths {human.shape}")
    return _step_costs(
        ego_x[..., None, :] - human[..., 0, :, :],
        ego_y[..., None, :] - human[..., 1, :, :],
        ego_speeds[..., None, :], ref_speed,
    ) @ weights


def path_cost_gradient(
    ego_x: np.ndarray,
    ego_y: np.ndarray,
    ego_speeds: np.ndarray,
    human: np.ndarray,
    weights: np.ndarray,
    ref_speed: float,
) -> np.ndarray:
    """Gradient (R, 3, T) of the mean ``path_costs`` of ego paths (x, y and
    speeds, each (R, T)) over their own samples ``human`` (R, 2, m, T), with
    respect to each step's x, y and speed. Row r equals its own call."""
    dx = ego_x[:, None] - human[:, 0]
    dy = ego_y[:, None] - human[:, 1]
    dist = np.sqrt(dx * dx + dy * dy)
    # d/d dist of W_PROX * exp((D_SAFE - dist) / PROX_SCALE), over dist.
    slope = np.exp((D_SAFE - dist) / PROX_SCALE) * (-W_PROX / PROX_SCALE) / dist
    out = np.empty((len(ego_x), 3, ego_x.shape[-1]))
    np.mean(slope * dx, axis=1, out=out[:, 0])
    np.mean(slope * dy, axis=1, out=out[:, 1])
    out[:, 2] = np.where(ref_speed - ego_speeds > 0.0, -W_PROGRESS / ref_speed, 0.0)
    out *= weights
    return out


def ego_path_gradient(
    sens: np.ndarray, speeds: np.ndarray, headings: np.ndarray, dt: float
) -> np.ndarray:
    """Gradient (R, T) with respect to the accelerations of a scalar whose
    gradient with respect to ``simulate_ego_path``'s x, y and speeds of R
    ego rows is ``sens`` (R, 3, T); ``speeds`` (R, T) are the rows' own.

    Speed t feeds its own term and, through ``headings``, every later
    position. The clamped speeds are a reflected walk, so acceleration k
    moves speed t > k unless the walk stands at zero at some step in
    (k, t], where it starts again; a zero speed takes no gradient (the
    clamp's one-sided kink)."""
    # Position j sums dt * heading_i * (pre-step speed i) over i <= j, and
    # pre-step speed i + 1 is post-step speed i: speed i feeds positions i + 1 on.
    later_x = np.cumsum(sens[:, 0, :0:-1], axis=-1)[:, ::-1]
    later_y = np.cumsum(sens[:, 1, :0:-1], axis=-1)[:, ::-1]
    per_speed = sens[:, 2].copy()
    per_speed[:, :-1] += dt * (headings[0, 1:] * later_x + headings[1, 1:] * later_y)
    # Acceleration k moves speeds k, k + 1, ... up to the next zero speed.
    reset = speeds == 0.0
    per_speed[reset] = 0.0
    out = np.cumsum(per_speed[:, ::-1], axis=-1)[:, ::-1]
    if reset.any():
        t_steps = speeds.shape[-1]
        upto = np.minimum.accumulate(np.where(reset, np.arange(t_steps), t_steps)[:, ::-1], axis=-1)
        out = out - np.take_along_axis(np.pad(out, ((0, 0), (0, 1))), upto[:, ::-1], axis=-1)
    return dt * out


def _step_costs(
    dx: np.ndarray, dy: np.ndarray, ego_speeds: np.ndarray, ref_speed: float
) -> np.ndarray:
    """Per-step costs from ego-minus-human offsets ``dx`` and ``dy``, both
    overwritten: the proximity term plus the progress deficit of
    ``ego_speeds`` (broadcast over the last axis)."""
    # Distance as sqrt(dx*dx + dy*dy), within 1 ulp of np.hypot and about
    # 3x faster; the squares cannot overflow at road scales.
    dx *= dx
    dy *= dy
    dy += dx
    np.sqrt(dy, out=dy)
    # W_PROX * exp((D_SAFE - dist) / PROX_SCALE), in place.
    np.subtract(D_SAFE, dy, out=dy)
    dy /= PROX_SCALE
    np.exp(dy, out=dy)
    dy *= W_PROX
    dy += W_PROGRESS * np.maximum(0.0, ref_speed - ego_speeds) / ref_speed
    return dy


def sample_boxes(human, extremes: np.ndarray) -> np.ndarray:
    """Bounding boxes per step of the positions ``place_human_paths`` puts
    at arc lengths along ``human``'s heading whose least and largest values
    per step are ``extremes`` (M, 2, T), as (M, 4, T) with rows x min,
    x max, y min and y max over the samples.

    Each edge is an extreme arc taken through the planes' own multiply and
    add, which are monotone in floating point, so it equals the plane-wise
    minimum or maximum bit for bit; a negative factor swaps the two. The
    arcs are finite (an infinite one times a zero factor would be NaN)."""
    boxes = np.empty((len(extremes), 4, extremes.shape[-1]))
    for row, factor, offset in ((0, math.cos(human.theta), human.x),
                                (2, math.sin(human.theta), human.y)):
        edges = boxes[:, row:row + 2]
        np.multiply(extremes if factor >= 0.0 else extremes[:, ::-1], factor, out=edges)
        edges += offset
    return boxes


def path_cost_bounds(
    ego_x: np.ndarray,
    ego_y: np.ndarray,
    ego_speeds: np.ndarray,
    boxes: np.ndarray,
    weights: np.ndarray,
    ref_speed: float,
) -> np.ndarray:
    """Upper bounds (P,) on ``path_costs`` of P ego paths (x, y and speeds,
    each (P, T)) against the samples whose ``sample_boxes`` are ``boxes``
    (P, 4, T): the cost of the point of each step's box nearest the ego,
    in the element operations ``path_costs`` runs per sample."""
    # np.minimum(np.maximum(...)) is np.clip against array bounds, NaN and
    # signed zeros included, without np.clip's Python wrappers.
    return _step_costs(
        ego_x - np.minimum(np.maximum(ego_x, boxes[:, 0]), boxes[:, 1]),
        ego_y - np.minimum(np.maximum(ego_y, boxes[:, 2]), boxes[:, 3]),
        ego_speeds, ref_speed,
    ) @ weights


def path_cost_means(
    ego_x: np.ndarray,
    ego_y: np.ndarray,
    ego_speeds: np.ndarray,
    samples: np.ndarray,
    weights: np.ndarray,
    ref_speed: float,
) -> np.ndarray:
    """Mean ``path_costs`` (K, M) of K ego paths (x, y and speeds, each
    (K, T)) over each of M modes' chosen samples ``samples`` (M, 2, m, T).
    The mean of a mode's m largest costs is at least the mean of any m of
    them, and falls as m grows, so with m at least ``tail_sample_count`` the
    mean is at most the mode's CVaR, up to the rounding ``CERTIFY_MARGIN``
    covers."""
    return (_step_costs(
        ego_x[:, None, None] - samples[:, 0], ego_y[:, None, None] - samples[:, 1],
        ego_speeds[:, None, None], ref_speed,
    ) @ weights).mean(axis=-1)
