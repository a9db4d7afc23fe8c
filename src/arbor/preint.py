"""Motion pre-integration with calibration propagation.

Between two keyframes, raw motion samples are folded into a single
pre-integrated delta together with its covariance and its Jacobian with
respect to the calibration parameters (Forster et al., TRO 2017; Lupton &
Sukkarieh, TRO 2012).  The pipeline is

1. pre-calibrate       v = f(u, c_bar)            with J_v_u, J_v_c
2. current delta       delta = g(v)               with J_delta_v
3. per sample: the delta
                       D_k = D_{k-1} o delta_k, on floats (manifold.compose)
4. per interval: the moments, in closed form
                       Q_N = sum_k S_k B_k Q_u,k B_k^T S_k^T
                       J_N = sum_k S_k C_k
                       with B_k = R_k J_delta_v J_v_u, C_k = R_k J_delta_v
                       J_v_c, and R_k the rotation of the position rows by
                       the heading of D_{k-1}

Only steps 1-2 are sensor specific; they live in a motion-model object so
the pipeline itself stays generic.  A sample is its time, its data as
floats and its covariance as rows.  A model checks the calibration once,
where a buffer snapshots it.  Per sample, it returns v and the step delta
(x, y, theta) as float tuples; per interval, its three Jacobians as arrays
over the interval's samples.

Step 4 unrolls the per-step recursion Q_k = Phi_k Q_{k-1} Phi_k^T + B_k
Q_u,k B_k^T, J_k = Phi_k J_{k-1} + C_k.  Its transition Phi_k =
[[1, 0, a_k], [0, 1, b_k], [0, 0, 1]] is a shear by the step's displacement
(a_k, b_k) = (y_{k-1} - y_k, x_k - x_{k-1}), and shears compose by adding
their offsets.  So Phi_N ... Phi_{k+1} is the shear S_k by (y_k - y_N,
x_N - x_k) that carries step k to the interval's end.  A vote and the
motion factor need the moments only at the interval's last sample, so they
are computed there, once, and the per-sample work is the delta alone.  The
stored delta is re-corrected to first order for calibration values that
moved away from the integration-time guess, D(c) = D (+) J_N (c - c_bar), in
one place only: the motion factor's residual kernel, ``factors._motion``.

High-rate state queries compose the buffer origin pose with the delta
accumulated up to the query time, by the same ``manifold.compose``.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter

import numpy as np

from .errors import ContractError, RecordFormatError
from .manifold import compose


class DiffDriveModel:
    """Differential-drive specialization of the pre-integration pipeline.

    Data u = the two wheel angle increments (rad) since the previous sample.
    Calibration vector c = (r_left, r_right, separation), all in meters.
    Calibrated data v = (arc length, heading change) so the delta model
    itself is calibration free.
    """

    calib_dim = 3

    def check_calibration(self, c):
        """Raise ContractError unless c holds three positive lengths."""
        if len(c) != 3:
            raise ContractError(f"diff-drive calibration must have 3 entries, got {len(c)}")
        r_l, r_r, d = c
        if r_l <= 0.0 or r_r <= 0.0 or d <= 0.0:
            raise ContractError(f"wheel radii and separation must be positive, got {c}")

    def precalibrate(self, u, c):
        """v = f(u, c), for a calibration that passed ``check_calibration``."""
        r_l, r_r, d = c
        dphi_l, dphi_r = u
        return 0.5 * (r_l * dphi_l + r_r * dphi_r), (r_r * dphi_r - r_l * dphi_l) / d

    def compute_delta(self, v):
        """delta = g(v) under the midpoint-chord motion model.

        The chord of the turned arc is traversed at half the heading change,
        which is exact for pure translations and pure rotations.
        """
        s, w = v
        half = 0.5 * w
        return s * math.cos(half), s * math.sin(half), w

    def jacobians(self, u, c):
        """J_v_u (n x 2 x 2), J_v_c (n x 2 x 3) and J_delta_v (n x 3 x 2) at
        the data ``u`` (n x 2) of n samples."""
        r_l, r_r, d = c
        n = len(u)
        j_v_u = np.array([[0.5 * r_l, 0.5 * r_r], [-r_l / d, r_r / d]])
        s, w = (u @ j_v_u.T).T
        j_v_c = np.zeros((n, 2, 3))
        j_v_c[:, :, :2] = u[:, None, :] * np.array([[0.5, 0.5], [-1.0 / d, 1.0 / d]])
        j_v_c[:, 1, 2] = -w / d
        half = 0.5 * w
        cos, sin = np.cos(half), np.sin(half)
        j_delta_v = np.zeros((n, 3, 2))
        j_delta_v[:, 0, 0] = cos
        j_delta_v[:, 1, 0] = sin
        j_delta_v[:, 0, 1] = -0.5 * s * sin
        j_delta_v[:, 1, 1] = 0.5 * s * cos
        j_delta_v[:, 2, 1] = 1.0
        return np.broadcast_to(j_v_u, (n, 2, 2)), j_v_c, j_delta_v


@dataclass(slots=True)
class PreintEntry:
    """Pipeline state after integrating one sample, as floats: the sample as
    :func:`integrate_step` took it (``t``, ``u``, ``q_u``) and the delta
    (x, y, theta) accumulated through it."""

    t: float
    u: tuple
    q_u: tuple
    delta: tuple


@dataclass
class PreintBuffer:
    """Working set of one pre-integration interval.

    Starts at an origin frame/time with the calibration guess ``c_bar``
    snapshotted there, as a tuple of floats and checked by the model; the
    delta starts from the identity.  Entries are strictly increasing in time.
    """

    origin_frame: object
    origin_t: float
    c_bar: tuple
    model: DiffDriveModel
    entries: list[PreintEntry] = field(default_factory=list)

    def __post_init__(self):
        self.c_bar = tuple(map(float, self.c_bar))
        self.model.check_calibration(self.c_bar)
        self._origin = PreintEntry(self.origin_t, (), (), (0.0, 0.0, 0.0))

    @property
    def tail(self) -> PreintEntry:
        """The last entry; before the first, the identity state at the origin."""
        return self.entries[-1] if self.entries else self._origin


def integrate_step(buf: PreintBuffer, t: float, u, q_u) -> PreintEntry:
    """Fold the sample at time t, data ``u`` as floats and covariance ``q_u``
    as rows, into the buffer's delta; returns the appended entry."""
    last = buf.tail
    if t <= last.t:
        raise RecordFormatError(f"sample at t={t} is not after t={last.t}")
    model = buf.model
    delta = compose(last.delta, model.compute_delta(model.precalibrate(u, buf.c_bar)))
    if not (math.isfinite(delta[0]) and math.isfinite(delta[1])):
        raise ContractError(f"pre-integrated delta must be finite, got {delta[:2]}")
    entry = PreintEntry(t, u, q_u, delta)
    buf.entries.append(entry)
    return entry


def interval_moments(buf: PreintBuffer) -> tuple:
    """(Q_N, J_N): the covariance (3 x 3) and the calibration Jacobian
    (3 x calib_dim) of the delta through the last of the buffer's entries,
    of which there must be at least one, by the closed form of step 4."""
    entries = buf.entries
    n, n_u = len(entries), len(entries[0].u)
    # flat float streams: numpy reads them several times faster than nested tuples
    flat = chain.from_iterable
    u = np.fromiter(flat(map(attrgetter("u"), entries)), float, n * n_u).reshape(n, n_u)
    q_u = np.fromiter(flat(flat(map(attrgetter("q_u"), entries))), float,
                      n * n_u * n_u).reshape(n, n_u, n_u)
    x, y, theta = np.fromiter(flat(map(attrgetter("delta"), entries)), float,
                              3 * n).reshape(n, 3).T
    j_v_u, j_v_c, j_delta_v = buf.model.jacobians(u, buf.c_bar)
    # S_k R_k, indexed [row, column, sample]: R_k rotates by the heading of
    # D_{k-1}, S_k shears by (y_k - y_N, x_N - x_k)
    before = np.concatenate(([0.0], theta[:-1]))
    cos, sin = np.cos(before), np.sin(before)
    zero, one = np.zeros(n), np.ones(n)
    sr = np.array([[cos, -sin, y - y[-1]], [sin, cos, x[-1] - x], [zero, zero, one]])
    m = np.einsum("ikn,nkv->inv", sr, j_delta_v)
    bs = np.einsum("ink,nkl->inl", m, j_v_u)  # the rows of S_k B_k
    q = np.einsum("inl,nlk,jnk->ij", bs, q_u, bs)
    return 0.5 * (q + q.T), np.einsum("ink,nkl->il", m, j_v_c)


def state_at_high_rate(buf: PreintBuffer, x_origin: tuple, t: float) -> tuple:
    """Pose (x, y, theta) at time t: the origin pose ``x_origin`` boxplus the
    delta accumulated up to t.

    Holds the last delta beyond the final entry; before the first entry the
    origin pose itself is returned.
    """
    if t < buf.origin_t:
        raise RecordFormatError(f"query t={t} precedes buffer origin t={buf.origin_t}")
    k = bisect.bisect_right(buf.entries, t, key=attrgetter("t"))
    if k == 0:
        return x_origin
    return compose(x_origin, buf.entries[k - 1].delta)


def nearest_sample(buf: PreintBuffer, t: float):
    """(k, gap) of the integrated sample nearest t: the origin for k = 0,
    else the k-th entry; ties within 1e-15 go to the earlier sample."""
    entries = buf.entries
    k = bisect.bisect_left(entries, t, key=attrgetter("t"))  # entries[:k] are before t
    before = entries[k - 1].t if k else buf.origin_t
    if k < len(entries) and entries[k].t - t < abs(t - before) - 1e-15:
        return k + 1, entries[k].t - t
    return k, abs(t - before)


def split_buffer(buf: PreintBuffer, t_split: float, c_bar):
    """Split at the integrated sample nearest t_split (ties go earlier).

    The first part keeps its entries as integrated; the second part
    re-integrates the remaining samples' deltas from the identity at the
    split time, at the calibration ``c_bar``.  The buffer origin itself
    is a valid split point, yielding an empty first part.
    """
    k, _ = nearest_sample(buf, t_split)
    first = PreintBuffer(buf.origin_frame, buf.origin_t, buf.c_bar, buf.model,
                         entries=buf.entries[:k])
    second = PreintBuffer(None, first.tail.t, c_bar, buf.model)
    for entry in buf.entries[k:]:
        integrate_step(second, entry.t, entry.u, entry.q_u)
    return first, second
