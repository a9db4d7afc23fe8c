"""Motion pre-integration with calibration propagation.

Between two keyframes, raw motion samples are folded into a single
pre-integrated delta together with its covariance and its Jacobian with
respect to the calibration parameters.  Per sample the pipeline runs:

1. pre-calibrate       v = f(u, c_bar)            with J_v_u, J_v_c
2. current delta       delta = g(v)               with J_delta_v
3. pre-integrate       D <- D o delta.  J_D_D is the shear
                       Phi = [[1, 0, -dy], [0, 1, dx], [0, 0, 1]], with
                       (dx, dy) the step's displacement in the frame D is
                       expressed in, and J_D_delta rotates the position
                       rows by D's heading
4. covariance          Q <- Phi Q Phi^T + B Q_u B^T,
                       B = J_D_delta J_delta_v J_v_u
5. calibration chain   J_D_c <- Phi J_D_c + C,
                       C = J_D_delta J_delta_v J_v_c

Only steps 1-2 are sensor specific; they live in a motion-model object so
the pipeline itself stays generic.  A sample is its time, its data as
floats and its covariance as rows; models return plain floats: v and the
step delta (x, y, theta) as tuples, Jacobians as tuples of rows.  Steps 3-5
are the same recursion as their matrix form, written out on floats (Forster
et al., TRO 2017; Lupton & Sukkarieh, TRO 2012): Phi Q Phi^T touches the 6
unique entries of Q, and Phi J_D_c the 3 * calib_dim entries of J_D_c.  An
entry shows the moments as arrays when read.  The stored delta is
re-corrected to first order for calibration values that moved away from the
integration-time guess, D(c) = D (+) J_D_c (c - c_bar), in one place only:
the motion factor's residual kernel, ``factors._motion``.

High-rate state queries compose the buffer origin pose with the delta
accumulated up to the query time.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from operator import attrgetter, mul

import numpy as np

from .errors import ContractError, RecordFormatError
from .manifold import Pose2, normalize_angle


class DiffDriveModel:
    """Differential-drive specialization of the pre-integration pipeline.

    Data u = the two wheel angle increments (rad) since the previous sample.
    Calibration vector c = (r_left, r_right, separation), all in meters.
    Calibrated data v = (arc length, heading change) so the delta model
    itself is calibration free.
    """

    calib_dim = 3

    def precalibrate(self, u, c):
        """v = f(u, c) with Jacobians J_v_u (2x2) and J_v_c (2x3)."""
        if len(c) != 3:
            raise ContractError(f"diff-drive calibration must have 3 entries, got {len(c)}")
        r_l, r_r, d = c
        if r_l <= 0.0 or r_r <= 0.0 or d <= 0.0:
            raise ContractError(f"wheel radii and separation must be positive, got {c}")
        dphi_l, dphi_r = u
        s = 0.5 * (r_l * dphi_l + r_r * dphi_r)
        w = (r_r * dphi_r - r_l * dphi_l) / d
        j_v_u = ((0.5 * r_l, 0.5 * r_r), (-r_l / d, r_r / d))
        j_v_c = ((0.5 * dphi_l, 0.5 * dphi_r, 0.0), (-dphi_l / d, dphi_r / d, -w / d))
        return (s, w), j_v_u, j_v_c

    def compute_delta(self, v):
        """delta = g(v) under the midpoint-chord motion model, with J_delta_v (3x2).

        The chord of the turned arc is traversed at half the heading change,
        which is exact for pure translations and pure rotations.
        """
        s, w = v
        half = 0.5 * w
        c, sn = math.cos(half), math.sin(half)
        return (s * c, s * sn, w), ((c, -0.5 * s * sn), (sn, 0.5 * s * c), (0.0, 1.0))


def _combine(vecs, rows) -> list:
    """Columns of V M for V given by its columns ``vecs`` (3-vectors) and a
    small matrix M given by its rows: sum_i vecs[i] M[i][l], per column l."""
    if len(vecs) == 2:
        # the inner dimension of the bundled models, unrolled
        (a0, a1, a2), (b0, b1, b2) = vecs
        return [(a0 * x + b0 * y, a1 * x + b1 * y, a2 * x + b2 * y) for x, y in zip(*rows)]
    comps = list(zip(*vecs))
    return [tuple([sum(map(mul, comp, col)) for comp in comps]) for col in zip(*rows)]


def _upper_outer(us, vs) -> tuple:
    """Entries 00, 01, 02, 11, 12, 22 of sum_l us[l] vs[l]^T over 3-vectors."""
    if len(us) == 2:
        # two data entries, as in the bundled models, unrolled
        (a0, a1, a2), (b0, b1, b2) = us
        (c0, c1, c2), (d0, d1, d2) = vs
        return (a0 * c0 + b0 * d0, a0 * c1 + b0 * d1, a0 * c2 + b0 * d2,
                a1 * c1 + b1 * d1, a1 * c2 + b1 * d2, a2 * c2 + b2 * d2)
    u0, u1, u2 = zip(*us)
    v0, v1, v2 = zip(*vs)
    return (sum(map(mul, u0, v0)), sum(map(mul, u0, v1)), sum(map(mul, u0, v2)),
            sum(map(mul, u1, v1)), sum(map(mul, u1, v2)), sum(map(mul, u2, v2)))


@dataclass(slots=True)
class PreintEntry:
    """Pipeline state after integrating one sample, as floats.

    ``t``, ``u`` and ``q_u`` are the sample as :func:`integrate_step` took it;
    ``delta`` is (x, y, theta); ``q`` the unique entries (q00, q01, q02,
    q11, q12, q22) of the delta covariance; ``j`` the columns of the
    calibration Jacobian, one 3-vector per calibration parameter.
    """

    t: float
    u: tuple
    q_u: tuple
    delta: tuple
    q: tuple
    j: list

    @property
    def q_delta(self) -> np.ndarray:
        q00, q01, q02, q11, q12, q22 = self.q
        return np.array([[q00, q01, q02], [q01, q11, q12], [q02, q12, q22]])

    @property
    def j_delta_c(self) -> np.ndarray:
        return np.array(self.j).reshape(-1, 3).T


@dataclass
class PreintBuffer:
    """Working set of one pre-integration interval.

    Starts at an origin frame/time with the calibration guess ``c_bar``
    snapshotted there, as a tuple of floats; the recursion starts from the
    identity delta with zero covariance and zero calibration Jacobian.
    Entries are strictly increasing in time.
    """

    origin_frame: object
    origin_t: float
    c_bar: tuple
    model: DiffDriveModel
    entries: list[PreintEntry] = field(default_factory=list)

    def __post_init__(self):
        self.c_bar = tuple(map(float, self.c_bar))
        self._origin = PreintEntry(self.origin_t, (), (), (0.0, 0.0, 0.0), (0.0,) * 6,
                                   [(0.0, 0.0, 0.0)] * len(self.c_bar))

    @property
    def tail(self) -> PreintEntry:
        """The last entry; before the first, the identity state at the origin."""
        return self.entries[-1] if self.entries else self._origin


def integrate_step(buf: PreintBuffer, t: float, u, q_u) -> PreintEntry:
    """Fold the sample at time t, data ``u`` as floats and covariance ``q_u``
    as rows, into the buffer; returns the appended entry."""
    last = buf.tail
    if t <= last.t:
        raise RecordFormatError(f"sample at t={t} is not after t={last.t}")

    v, j_v_u, j_v_c = buf.model.precalibrate(u, buf.c_bar)
    (ex, ey, etheta), j_delta_v = buf.model.compute_delta(v)
    x, y, theta = last.delta
    c, s = math.cos(theta), math.sin(theta)
    x, y = x + c * ex - s * ey, y + s * ex + c * ey
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ContractError(f"pre-integrated delta must be finite, got ({x}, {y})")
    delta = (x, y, normalize_angle(theta + etheta))
    # the shear Phi = [[1, 0, a], [0, 1, b], [0, 0, 1]]: a = -dy, b = dx
    a, b = -s * ex - c * ey, c * ex - s * ey

    # columns of R G, with G = J_delta_v and R = J_D_delta the rotation by
    # theta; then the columns of B = R G J_v_u and C = R G J_v_c
    rg = [(c * p - s * q, s * p + c * q, r) for p, q, r in zip(*j_delta_v)]
    bs = _combine(rg, j_v_u)
    m00, m01, m02, m11, m12, m22 = _upper_outer(_combine(bs, q_u), bs)
    q00, q01, q02, q11, q12, q22 = last.q
    p02, p12 = q02 + a * q22, q12 + b * q22
    q = (q00 + a * q02 + a * p02 + m00,
         q01 + a * q12 + b * p02 + m01,
         p02 + m02,
         q11 + b * q12 + b * p12 + m11,
         p12 + m12,
         q22 + m22)
    j = [(p + a * r + e, q + b * r + f, r + g)
         for (p, q, r), (e, f, g) in zip(last.j, _combine(rg, j_v_c))]

    entry = PreintEntry(t, u, q_u, delta, q, j)
    buf.entries.append(entry)
    return entry


def state_at_high_rate(buf: PreintBuffer, x_origin: Pose2, t: float) -> Pose2:
    """Pose at time t: origin boxplus the delta accumulated up to t.

    Holds the last delta beyond the final entry; before the first entry the
    origin pose is returned unchanged.
    """
    if t < buf.origin_t:
        raise RecordFormatError(f"query t={t} precedes buffer origin t={buf.origin_t}")
    k = bisect.bisect_right(buf.entries, t, key=attrgetter("t"))
    if k == 0:
        return Pose2(x_origin.p.copy(), x_origin.theta)
    dx, dy, dtheta = buf.entries[k - 1].delta
    c, s = math.cos(x_origin.theta), math.sin(x_origin.theta)
    x, y = x_origin.p.tolist()
    return Pose2(np.array([x + c * dx - s * dy, y + s * dx + c * dy]),
                 x_origin.theta + dtheta)


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
    re-integrates the remaining samples from a fresh recursion anchored at
    the split time, at the calibration ``c_bar``.  The buffer origin itself
    is a valid split point, yielding an empty first part.
    """
    k, _ = nearest_sample(buf, t_split)
    first = PreintBuffer(buf.origin_frame, buf.origin_t, buf.c_bar, buf.model,
                         entries=buf.entries[:k])
    second = PreintBuffer(None, first.tail.t, c_bar, buf.model)
    for entry in buf.entries[k:]:
        integrate_step(second, entry.t, entry.u, entry.q_u)
    return first, second
