"""Ports of the three SciPy 1.17.1 routines the construction needs, bit for bit.

- DenseMarch: ``solve_ivp(method="DOP853", dense_output=True)`` with scalar
  rtol = atol, a max_step and at most one terminal event, whose root Brent's
  method finds (``brentq``, xtol = rtol = 4 eps).
- Pchip: ``PchipInterpolator(x, y)`` on 1-D data.
- cumulative_simpson: ``cumulative_simpson(y, dx=dx, axis=axis, initial=0.0)``
  on equally spaced samples.

Each does SciPy's floating-point operations in SciPy's order, so results
agree to the last bit; tests/test_numerics.py checks that against SciPy
1.17.1, the release the ``test`` extra pins.
Matrix-vector products stay numpy ``dot`` and ``linalg.norm`` on the shapes
SciPy uses, because the BLAS summation order decides the last bits. What
SciPy wraps around the arithmetic (argument wrappers, OdeSolution's sorting
and grouping, 0-d array round trips) is left out.

References: E. Hairer, S. P. Norsett and G. Wanner, Solving Ordinary
Differential Equations I: Nonstiff Problems, Sec. II (DOP853); F. N.
Fritsch and R. E. Carlson, SIAM J. Numer. Anal. 17 (1980) 238-246 (PCHIP);
R. P. Brent, Algorithms for Minimization without Derivatives (1973), ch. 4.

The ported code is derived from SciPy, under this licence:

Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
All rights reserved.

Redistribution and use in source and binary forms, with or without
modification, are permitted provided that the following conditions
are met:

1. Redistributions of source code must retain the above copyright
   notice, this list of conditions and the following disclaimer.

2. Redistributions in binary form must reproduce the above
   copyright notice, this list of conditions and the following
   disclaimer in the documentation and/or other materials provided
   with the distribution.

3. Neither the name of the copyright holder nor the names of its
   contributors may be used to endorse or promote products derived
   from this software without specific prior written permission.

THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
"AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
(INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""
from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from math import copysign

import numpy as np

EPS = float(np.finfo(float).eps)
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
BRENT_TOL = 4 * EPS   # xtol = rtol of the event root, as solve_ivp asks brentq for it
BRENT_MAXITER = 100

SAFETY = 0.9        # multiplies steps computed from the asymptotic error behaviour
MIN_FACTOR = 0.2    # largest allowed step decrease
MAX_FACTOR = 10     # largest allowed step increase
_ERROR_EXPONENT = -1 / 8   # the error estimator has order 7

# DOP853 tableau: stages 0-11 step, 12 is the new slope, 13-15 serve dense output only.
# A, E5 and D are zero where no entry is set; the zeros take part in the products.
C = np.array([0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
              0.118350341907227396726757197510, 0.281649658092772603273242802490,
              0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
              0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142,
              1.0, 1.0, 0.1, 0.2, 0.777777777777777777777777777778])
A = np.zeros((16, 16))
A[1, [0]] = [5.26001519587677318785587544488e-2]
A[2, [0, 1]] = [1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2]
A[3, [0, 2]] = [2.95875854768068491816892993775e-2, 8.87627564304205475450678981324e-2]
A[4, [0, 2, 3]] = [
    2.41365134159266685502369798665e-1, -8.84549479328286085344864962717e-1,
    9.24834003261792003115737966543e-1]
A[5, [0, 3, 4]] = [
    3.7037037037037037037037037037e-2, 1.70828608729473871279604482173e-1,
    1.25467687566822425016691814123e-1]
A[6, [0, 3, 4, 5]] = [
    3.7109375e-2, 1.70252211019544039314978060272e-1,
    6.02165389804559606850219397283e-2, -1.7578125e-2]
A[7, [0, 3, 4, 5, 6]] = [
    3.70920001185047927108779319836e-2, 1.70383925712239993810214054705e-1,
    1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
    8.27378916381402288758473766002e-3]
A[8, [0, 3, 4, 5, 6, 7]] = [
    6.24110958716075717114429577812e-1, -3.36089262944694129406857109825,
    -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
    2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1]
A[9, [0, 3, 4, 5, 6, 7, 8]] = [
    4.77662536438264365890433908527e-1, -2.48811461997166764192642586468,
    -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
    1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
    -2.03312017085086261358222928593e-2]
A[10, [0, 3, 4, 5, 6, 7, 8, 9]] = [
    -9.3714243008598732571704021658e-1, 5.18637242884406370830023853209,
    1.09143734899672957818500254654, -8.14978701074692612513997267357,
    -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
    2.49360555267965238987089396762, -3.0467644718982195003823669022]
A[11, [0, 3, 4, 5, 6, 7, 8, 9, 10]] = [
    2.27331014751653820792359768449, -1.05344954667372501984066689879e1,
    -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
    2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
    -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
    6.43392746015763530355970484046e-1]
A[12, [0, 5, 6, 7, 8, 9, 10, 11]] = [
    5.42937341165687622380535766363e-2, 4.45031289275240888144113950566,
    1.89151789931450038304281599044, -5.8012039600105847814672114227,
    3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
    2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2]
A[13, [0, 6, 7, 8, 9, 10, 11, 12]] = [
    5.61675022830479523392909219681e-2, 2.53500210216624811088794765333e-1,
    -2.46239037470802489917441475441e-1, -1.24191423263816360469010140626e-1,
    1.5329179827876569731206322685e-1, 8.20105229563468988491666602057e-3,
    7.56789766054569976138603589584e-3, -8.298e-3]
A[14, [0, 5, 6, 7, 10, 11, 12, 13]] = [
    3.18346481635021405060768473261e-2, 2.83009096723667755288322961402e-2,
    5.35419883074385676223797384372e-2, -5.49237485713909884646569340306e-2,
    -1.08347328697249322858509316994e-4, 3.82571090835658412954920192323e-4,
    -3.40465008687404560802977114492e-4, 1.41312443674632500278074618366e-1]
A[15, [0, 5, 6, 7, 8, 12, 13, 14]] = [
    -4.28896301583791923408573538692e-1, -4.69762141536116384314449447206,
    7.68342119606259904184240953878, 4.06898981839711007970213554331,
    3.56727187455281109270669543021e-1, -1.39902416515901462129418009734e-3,
    2.9475147891527723389556272149, -9.15095847217987001081870187138]
B = A[12, :12]
E3 = np.zeros(13)
E3[:-1] = B
E3[0] -= 0.244094488188976377952755905512
E3[8] -= 0.733846688281611857341361741547
E3[11] -= 0.220588235294117647058823529412e-1
E5 = np.zeros(13)
E5[[0, 5, 6, 7, 8, 9, 10, 11]] = [0.1312004499419488073250102996e-1,
                                  -0.1225156446376204440720569753e+1,
                                  -0.4957589496572501915214079952,
                                  0.1664377182454986536961530415e+1,
                                  -0.3503288487499736816886487290,
                                  0.3341791187130174790297318841,
                                  0.8192320648511571246570742613e-1,
                                  -0.2235530786388629525884427845e-1]
D = np.zeros((4, 16))
D[:, [0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]] = [
    [-0.84289382761090128651353491142e+1, 0.56671495351937776962531783590,
     -0.30689499459498916912797304727e+1, 0.23846676565120698287728149680e+1,
     0.21170345824450282767155149946e+1, -0.87139158377797299206789907490,
     0.22404374302607882758541771650e+1, 0.63157877876946881815570249290,
     -0.88990336451333310820698117400e-1, 0.18148505520854727256656404962e+2,
     -0.91946323924783554000451984436e+1, -0.44360363875948939664310572000e+1],
    [0.10427508642579134603413151009e+2, 0.24228349177525818288430175319e+3,
     0.16520045171727028198505394887e+3, -0.37454675472269020279518312152e+3,
     -0.22113666853125306036270938578e+2, 0.77334326684722638389603898808e+1,
     -0.30674084731089398182061213626e+2, -0.93321305264302278729567221706e+1,
     0.15697238121770843886131091075e+2, -0.31139403219565177677282850411e+2,
     -0.93529243588444783865713862664e+1, 0.35816841486394083752465898540e+2],
    [0.19985053242002433820987653617e+2, -0.38703730874935176555105901742e+3,
     -0.18917813819516756882830838328e+3, 0.52780815920542364900561016686e+3,
     -0.11573902539959630126141871134e+2, 0.68812326946963000169666922661e+1,
     -0.10006050966910838403183860980e+1, 0.77771377980534432092869265740,
     -0.27782057523535084065932004339e+1, -0.60196695231264120758267380846e+2,
     0.84320405506677161018159903784e+2, 0.11992291136182789328035130030e+2],
    [-0.25693933462703749003312586129e+2, -0.15418974869023643374053993627e+3,
     -0.23152937917604549567536039109e+3, 0.35763911791061412378285349910e+3,
     0.93405324183624310003907691704e+2, -0.37458323136451633156875139351e+2,
     0.10409964950896230045147246184e+3, 0.29840293426660503123344363579e+2,
     -0.43533456590011143754432175058e+2, 0.96324553959188282948394950600e+2,
     -0.39177261675615439165231486172e+2, -0.14972683625798562581422125276e+3]]
_STEP_STAGES = [(s, A[s, :s], C[s]) for s in range(1, 12)]
_DENSE_STAGES = [(s, A[s, :s], C[s]) for s in range(13, 16)]


def is_point(x) -> bool:
    """np.ndim(x) == 0, without its array round trip for Python and numpy scalars."""
    return isinstance(x, (float, complex)) or np.ndim(x) == 0


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, t0, y0, t_bound, max_step, f0, direction, tol):
    """Empirical first step (Hairer, Norsett and Wanner, Sec. II.4)."""
    interval_length = abs(t_bound - t0)
    scale = tol + np.abs(y0) * tol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = np.asarray(fun(t0 + h0 * direction, y0 + h0 * direction * f0), dtype=float)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval_length, max_step)


def _error_norm(K, h, scale):
    """RMS norm of the DOP853 error estimate, the 5th-order part damped by the 3rd."""
    err5 = np.dot(K.T, E5) / scale
    err3 = np.dot(K.T, E3) / scale
    err5_norm_2 = np.linalg.norm(err5) ** 2
    err3_norm_2 = np.linalg.norm(err3) ** 2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return np.abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))


def _interpolate(x: float, coef) -> list:
    """DOP853 interpolant at x (in units of the step) on Python floats; coef holds, per
    component, y_old and the 7 coefficient rows, last first, the leading one as 0.0 + row."""
    xm = 1 - x
    out = []
    for k in range(0, len(coef), 8):
        y_old, f0, f1, f2, f3, f4, f5, f6 = coef[k:k + 8]
        out.append(((((((f0 * x + f1) * xm + f2) * x + f3) * xm + f4) * x + f5) * xm
                    + f6) * x + y_old)
    return out


def _rk_step(fun, t, y, f, h, K):
    """One DOP853 step of size h; K receives the 13 stage slopes."""
    K[0] = f
    for s, a, c in _STEP_STAGES:
        dy = np.dot(K[:s].T, a) * h
        K[s] = fun(t + c * h, y + dy)
    y_new = y + h * np.dot(K[:12].T, B)
    f_new = np.asarray(fun(t + h, y_new), dtype=float)
    K[12] = f_new
    return y_new, f_new


def _dense_rows(fun, t_old, y_old, y, f, h, K):
    """Coefficients of the interpolant over the step just taken from (t_old, y_old)."""
    for s, a, c in _DENSE_STAGES:
        dy = np.dot(K[:s].T, a) * h
        K[s] = fun(t_old + c * h, y_old + dy)
    F = np.empty((7, y.size))
    f_old = K[0]
    delta_y = y - y_old
    F[0] = delta_y
    F[1] = h * f_old - delta_y
    F[2] = 2 * delta_y - h * (f + f_old)
    F[3:] = h * np.dot(D, K)
    return F


class DenseMarch:
    """DOP853 march of y' = fun(t, y) from t0 to t_bound, with dense output.

    The same march, step for step and bit for bit, as ``solve_ivp(fun,
    (t0, t_bound), y0, method="DOP853", dense_output=True, rtol=tol,
    atol=tol, max_step=max_step, events=event)`` with ``event`` terminal.
    Callers pass a finite y0 and a t_bound other than t0, and fun returns a
    sequence as long as y0. status is 0 when the march
    reached t_bound, 1 when the event stopped it and -1 when a step failed
    (message says why); t_end is where it stopped.

    Called on an array of points the march returns the interpolated state,
    shape (n,) + t.shape: one searchsorted picks each point's step, then each
    state component gathers its coefficient rows from a (7, n, steps) table,
    contiguous per component. Called on one point (a float or any 0-d value)
    it returns a list of n Python floats, read by bisect from a flat
    ``array('d')`` of the same coefficients; the right-hand sides of other
    marches take this path once per stage, and so does the event's root
    search on the step it stopped in. Both paths make SciPy's IEEE operations
    in its order, so they agree with each other and with SciPy's
    ``OdeSolution`` to the last bit.
    """

    def __init__(self, fun, t0: float, y0, t_bound: float, tol: float, max_step: float,
                 event=None):
        y = np.asarray(y0, dtype=float)
        direction = np.sign(t_bound - t0)
        f = np.asarray(fun(t0, y), dtype=float)
        h_abs = _initial_step(fun, t0, y, t_bound, max_step, f, direction, tol)
        K = np.empty((16, y.size))
        g = event(t0, y) if event is not None else None
        t = t0
        ts, segments = [t0], []
        self.status, self.message = None, None
        while self.status is None:
            step = self._step(fun, t, y, f, h_abs, direction, t_bound, tol, max_step, K)
            if step is None:
                self.status, self.message = -1, TOO_SMALL_STEP
                break
            t_old, y_old = t, y
            t, y, f, h, h_abs = step
            F = _dense_rows(fun, t_old, y_old, y, f, h, K)
            segments.append((t_old, t - t_old, y_old, F))
            if direction * (t - t_bound) >= 0:
                self.status = 0
            if event is not None:
                g_new = event(t, y)
                if g <= 0 <= g_new or g >= 0 >= g_new:
                    t_seg, h_seg, y_seg, F_seg = segments[-1]
                    coef = np.vstack([y_seg, F_seg[6] + 0.0, F_seg[5::-1]]).T.ravel().tolist()
                    t = brentq(lambda s: event(s, np.array(_interpolate((s - t_seg) / h_seg, coef))),
                               t_old, t)
                    self.status = 1
                    if len(ts) > 1 and ts[-1] == t:
                        segments.pop()
                        break
                g = g_new
            ts.append(t)
        self.t_end = float(ts[-1])
        if self.status == -1:   # nothing to interpolate: callers report the failure
            return
        ts = np.array(ts, dtype=float)
        n = y.size
        self._ascending = bool(ts[-1] >= ts[0])
        # OdeSolution's rule: the breakpoints between steps, searched from the
        # left when marching up and from the right when marching down
        self._inner = (ts if self._ascending else ts[::-1])[1:-1]
        self._side = "left" if self._ascending else "right"
        self._inner_list = self._inner.tolist()
        self._t_old = np.array([s[0] for s in segments])
        self._h = np.array([s[1] for s in segments])
        self._y_old = np.array([s[2] for s in segments]).T.copy()   # (n, steps)
        # (7, n, steps), last coefficient first; the leading row takes SciPy's
        # "0.0 + row" here once, which turns -0.0 into +0.0 and keeps every other bit
        F = np.array([s[3][::-1] for s in segments]).transpose(1, 2, 0)
        F[0] += 0.0
        self._F = np.ascontiguousarray(F)
        # one-point table: per step t_old, h, then per component y_old and the 7 rows
        rows = np.concatenate([self._y_old.T[:, :, None], F.transpose(2, 1, 0)], axis=2)
        self._stride = 2 + 8 * n
        self._flat = array("d", np.hstack([self._t_old[:, None], self._h[:, None],
                                           rows.reshape(len(segments), -1)]).tobytes())

    @staticmethod
    def _step(fun, t, y, f, h_abs, direction, t_bound, tol, max_step, K):
        """One accepted step as (t, y, f, h, next h_abs), or None once h underflows."""
        min_step = 10 * np.abs(np.nextafter(t, direction * np.inf) - t)
        if h_abs > max_step:
            h_abs = max_step
        elif h_abs < min_step:
            h_abs = min_step
        rejected = False
        while h_abs >= min_step:
            h = h_abs * direction
            t_new = t + h
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = np.abs(h)
            y_new, f_new = _rk_step(fun, t, y, f, h, K)
            scale = tol + np.maximum(np.abs(y), np.abs(y_new)) * tol
            error_norm = _error_norm(K[:13], h, scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR, SAFETY * error_norm ** _ERROR_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                return t_new, y_new, f_new, h, h_abs * factor
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
        return None

    def __call__(self, t):
        if is_point(t):
            return self._at(float(t))
        t = np.asarray(t, dtype=float)
        seg = self._steps_of(t)
        x = self._t_old.take(seg)
        np.subtract(t, x, out=x)
        x /= self._h.take(seg)
        xm = 1 - x
        out = np.empty((self._F.shape[1],) + t.shape)
        row = np.empty(t.shape)
        for j, y in enumerate(out):
            F = self._F[:, j]
            F[0].take(seg, out=y, mode="clip")
            y *= x
            for i in range(1, 7):
                y += F[i].take(seg, out=row, mode="clip")
                y *= xm if i % 2 else x
            y += self._y_old[j].take(seg, out=row, mode="clip")
        return out

    def _steps_of(self, t: np.ndarray) -> np.ndarray:
        """Index of the step each point reads, by OdeSolution's side rule."""
        seg = np.searchsorted(self._inner, t, side=self._side)
        return seg if self._ascending else self._inner.size - seg

    def _step_of(self, t: float) -> int:
        """_steps_of for one float, by bisect."""
        if t != t:   # searchsorted ranks NaN above every breakpoint, bisect below
            return len(self._inner_list) if self._ascending else 0
        if self._ascending:
            return bisect_left(self._inner_list, t)
        return len(self._inner_list) - bisect_right(self._inner_list, t)

    def _at(self, t: float) -> list:
        """The state at one point, on Python floats; see the class docstring."""
        base = self._step_of(t) * self._stride
        t_old, h, *coef = self._flat[base:base + self._stride]
        return _interpolate((t - t_old) / h, coef)


def brentq(f, xa: float, xb: float) -> float:
    """Root of f bracketed by [xa, xb], by Brent's method as scipy.optimize.brentq does it.

    xtol = rtol = BRENT_TOL, at most BRENT_MAXITER iterations.
    """
    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0

    def call(x):
        fx = float(f(x))
        if fx != fx:
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if copysign(1.0, fpre) == copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and copysign(1.0, fpre) != copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (BRENT_TOL + BRENT_TOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:   # secant step
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:              # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {BRENT_MAXITER} iterations, value is {xcur}")


class Pchip:
    """Monotone piecewise cubic interpolant through (x, y) with x strictly increasing.

    ``PchipInterpolator(x, y)`` for 1-D x and y of three or more points:
    slopes by the weighted harmonic mean of Fritsch and Carlson, one-sided
    three-point slopes at the ends. Callers keep t within [x[0], x[-1]]
    (Potential.psi clips to it); outside, the end pieces extend. Raises
    ValueError where SciPy does.
    """

    def __init__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if not np.isfinite(x).all():
            raise ValueError("`x` must contain only finite values.")
        if not np.isfinite(y).all():
            raise ValueError("`y` must contain only finite values.")
        hk = np.diff(x)
        if np.any(hk <= 0):
            raise ValueError("`x` must be strictly increasing sequence.")
        with np.errstate(all="ignore"):
            mk = np.diff(y) / hk
            smk = np.sign(mk)
            condition = (smk[1:] != smk[:-1]) | (mk[1:] == 0) | (mk[:-1] == 0)
            w1 = 2 * hk[1:] + hk[:-1]
            w2 = hk[1:] + 2 * hk[:-1]
            whmean = (w1 / mk[:-1] + w2 / mk[1:]) / (w1 + w2)
            dk = np.zeros_like(y)
            dk[1:-1][~condition] = 1.0 / whmean[~condition]
            dk[0] = self._edge(hk[0], hk[1], mk[0], mk[1])
            dk[-1] = self._edge(hk[-1], hk[-2], mk[-1], mk[-2])
            if not np.isfinite(dk).all():
                raise ValueError("`dydx` must contain only finite values.")
            t = (dk[:-1] + dk[1:] - 2 * mk) / hk
            self.c = np.stack((t / hk, (mk - dk[:-1]) / hk - t, dk[:-1], y[:-1]))
        self.x = x

    @staticmethod
    def _edge(h0, h1, m0, m1):
        """One-sided three-point slope at an end, limited to keep the data's shape."""
        d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        if np.sign(d) != np.sign(m0):
            return 0.0
        if np.sign(m0) != np.sign(m1) and abs(d) > 3. * abs(m0):
            return 3. * m0
        return d

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        x, c = self.x, self.c
        i = np.clip(np.searchsorted(x, t, side="right") - 1, 0, x.size - 2)
        s = t - x[i]
        z = s * s
        return 0.0 + c[3, i] + c[2, i] * s + c[1, i] * z + c[0, i] * (z * s)


def cumulative_simpson(y, dx: float, axis: int = -1) -> np.ndarray:
    """Cumulative Simpson integral of samples spaced dx apart along axis, from 0 at the first.

    Each subinterval takes the quadratic through it and its neighbour on
    the side away from the nearest even node (Cartwright's equal-spacing
    formula); the last takes its left neighbour. Needs three or more
    samples along axis.
    """
    y = np.moveaxis(np.asarray(y, dtype=float), axis, -1)
    n = y.shape[-1]
    if n < 3:
        raise ValueError("cumulative Simpson integration needs three or more samples")
    f1, f2, f3 = y[..., :-2], y[..., 1:-1], y[..., 2:]
    d = dx / 3
    sub = np.empty(y.shape[:-1] + (n - 1,))
    sub[..., :-1:2] = d * (5 * f1[..., ::2] / 4 + 2 * f2[..., ::2] - f3[..., ::2] / 4)
    sub[..., 1::2] = d * (5 * f3[..., ::2] / 4 + 2 * f2[..., ::2] - f1[..., ::2] / 4)
    sub[..., -1] = d * (5 * f3[..., -1] / 4 + 2 * f2[..., -1] - f1[..., -1] / 4)
    res = np.empty(y.shape)
    res[..., 0] = 0.0
    np.cumsum(sub, axis=-1, out=res[..., 1:])
    res[..., 1:] += 0.0   # as SciPy's "res += initial": turns -0.0 into +0.0
    return np.moveaxis(res, -1, axis)
