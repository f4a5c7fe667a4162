"""Subsampled, ridge-regularized maximum pseudo-likelihood estimation.

The pseudo-likelihood replaces the intractable joint normalizer with a
product of single-dyad conditionals: for each dyad, the distribution of its
count given every other dyad is a one-dimensional exponential family with
weights ``w(v) = exp(theta . g_profile(v)) / v!`` on v = 0, 1, 2, ...
Every term is piecewise-linear in v, so on each of at most five integer
segments the log-weight is ``A_s + a_s * v - log v!``, whose sum is
``exp(A_s + e^a_s)`` times a Poisson interval probability: the normalizer
and the moments behind the gradient and Hessian are exact, at a cost that
does not grow with the counts. Dyads are drawn with a tie/no-tie stratified
scheme and re-weighted by inverse inclusion probabilities, so the weighted
objective is unbiased for the full-census pseudo-log-likelihood. The sampler
codes dyad (i, j) as i * n + j, as the edge arrays and the chain state do.

The sample is split into chunks of 4,096 dyads in a fixed order. A chunk
stores the part of its data that does not depend on the dependence terms:
the observed and reverse counts, int64 as they are gathered, and the linear
design. Each evaluation rebuilds the segments (bounds, intercepts and
slopes, :meth:`ChangeStats.segment_terms`) and the observed nonlinear
statistics from the counts and the node volumes. A chunk is the unit of
work: building the chunks and evaluating each one run on a thread pool of
the CPUs this process may run on, at most 8, created and shut down inside
the call. One worker evaluates a whole chunk and returns its value,
gradient and Hessian, and the calling thread adds them in chunk order. So
at most one chunk's state is alive per worker, and values, gradients and
Hessians are reproducible bit-for-bit for a given sample whatever the
number of workers.

The estimator needs numpy alone: the Poisson interval probabilities are
sums of pmf terms from Loader's saddle-point log-pmf, kept in log space, and
the linear algebra is ``numpy.linalg``. The thread pool is imported inside
the function that uses it, so that importing the package, and every command
but ``fit``, does not pay for loading it.
"""

from __future__ import annotations

import csv
import math
import numbers
import os
from dataclasses import dataclass

import numpy as np

from ._jsonio import write_json
from .errors import EstimationError, ValidationError, check_count, is_integer
from .stats import ChangeStats, ModelSpec, model_to_dict

__all__ = [
    "DyadSample",
    "FitResult",
    "stratified_dyad_sample",
    "census_sample",
    "conditional_log_pmf",
    "penalized_pseudo_loglik",
    "fit_mple",
    "pseudo_bic",
    "effect_multiplier",
]

_CHUNK_DYADS = 4096
_THETA_NORM_GUARD = 1e4


# -- dyad sampling ----------------------------------------------------------

@dataclass
class DyadSample:
    """A weighted set of ordered dyads for pseudo-likelihood evaluation.

    ``weights`` are Horvitz-Thompson inverse inclusion probabilities per
    stratum; ``strata_counts`` is (total nonzero, total zero, sampled
    nonzero, sampled zero).
    """

    src: np.ndarray
    dst: np.ndarray
    weights: np.ndarray
    strata_counts: tuple[int, int, int, int]
    seed: int | None

    @property
    def n_dyads(self):
        return len(self.src)

    @property
    def weight_total(self):
        return float(self.weights.sum())

    def summary(self):
        n1, n0, s1, s0 = self.strata_counts
        return {
            "n_dyads": self.n_dyads,
            "weight_total": self.weight_total,
            "total_nonzero": n1,
            "total_zero": n0,
            "sampled_nonzero": s1,
            "sampled_zero": s0,
            "seed": self.seed,
        }


def stratified_dyad_sample(network, n_total, seed):
    """Tie/no-tie stratified dyad sample with Horvitz-Thompson weights.

    Each draw picks the nonzero-dyad stratum or the zero-dyad stratum with
    equal probability and takes a not-yet-drawn dyad uniformly from it; once
    a stratum is exhausted the remaining draws come from the other. Sampled
    nonzero dyads get weight (total nonzero / sampled nonzero) and zero
    dyads (total zero / sampled zero). ``n_total`` above the dyad count is
    clamped to a census with unit weights.
    """
    if not (is_integer(n_total) and n_total >= 1):
        raise ValidationError("n_total must be >= 1 and an integer, got %r" % (n_total,))
    if not (seed is None or is_integer(seed) and seed >= 0):
        raise ValidationError("seed must be None or an integer >= 0, got %r" % (seed,))
    n_total = int(n_total)
    seed = None if seed is None else int(seed)  # fit.json holds it
    n = network.n_nodes
    total = n * (n - 1)
    src, dst, _ = network.edge_arrays()
    nz_codes = src * n + dst  # sorted, as the edge arrays are
    n1_total = len(nz_codes)
    n0_total = total - n1_total
    rng = np.random.default_rng(seed)
    candidates = np.ones(n * n, dtype=bool)
    candidates[::n + 1] = False  # the diagonal holds no dyad

    if n_total >= total:
        ii, jj = np.divmod(np.flatnonzero(candidates), n)
        return DyadSample(ii, jj, np.ones(total), (n1_total, n0_total, n1_total, n0_total),
                          seed=seed)

    heads = int(rng.binomial(n_total, 0.5))
    tails = n_total - heads
    n1 = min(n1_total, heads + max(0, tails - n0_total))
    n0 = n_total - n1

    take1 = np.sort(rng.choice(nz_codes, size=n1, replace=False)) if n1 else np.empty(0, np.int64)
    if n0:
        candidates[nz_codes] = False
        take0 = np.sort(rng.choice(np.flatnonzero(candidates), size=n0, replace=False))
    else:
        take0 = np.empty(0, np.int64)

    codes = np.concatenate([take1, take0])
    weights = np.concatenate([
        np.full(n1, n1_total / n1 if n1 else 1.0),
        np.full(n0, n0_total / n0 if n0 else 1.0),
    ])
    ii, jj = np.divmod(codes, n)
    return DyadSample(ii, jj, weights, (n1_total, n0_total, int(n1), int(n0)), seed=seed)


def census_sample(network):
    """Every ordered dyad once with unit weight."""
    return stratified_dyad_sample(network, network.n_dyads, seed=0)


# -- conditional pmf ---------------------------------------------------------

# log k! is tabled below _SMALL, and where k and lam are both below it the
# log-pmf is k a - log k! - lam
_SMALL = 64
_LOG_2PI = math.log(2.0 * math.pi)
_LOG_FACTORIAL = np.array([math.lgamma(k + 1.0) for k in range(_SMALL)])
# stirlerr(k) for k < 16, where its series converges too slowly
_STIRLERR = _LOG_FACTORIAL[:16] - np.array(
    [0.0] + [(k + 0.5) * math.log(k) - k + 0.5 * _LOG_2PI for k in range(1, 16)])
_BLOCK_TERMS = 1 << 20  # the most terms one call of _log_sum holds at once


def _stirlerr(k):
    """log k! - (k + 1/2) log k + k - log(2 pi) / 2, the error of Stirling's
    formula, at integer-valued float k >= 1: a table below 16, the Stirling
    series from there."""
    with np.errstate(divide="ignore", invalid="ignore"):
        kk = k * k
        out = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * kk)) / kk) / kk) / kk) / k
    small = k < 16
    out[small] = _STIRLERR[k[small].astype(np.intp)]
    return out


def _log_factorial(k):
    """log k! at integer-valued float k >= 0: a table below 64, Stirling's
    formula with :func:`_stirlerr` from there."""
    small = k < _SMALL
    out = np.empty_like(k)
    out[small] = _LOG_FACTORIAL[k[small].astype(np.intp)]
    big = k[~small]
    out[~small] = (big + 0.5) * np.log(big) - big + 0.5 * _LOG_2PI + _stirlerr(big)
    return out


def _bd0(x, lam):
    """x log(x / lam) + lam - x for x > 0, the deviance part of the log-pmf;
    where x is within 10% of lam, a series in v = (x - lam) / (x + lam),
    whose terms shrink by v^2 < 0.01, so the value does not cancel."""
    d = x - lam
    out = x * np.log(x / lam) - d
    near = np.abs(d) < 0.1 * (x + lam)
    if near.any():
        xn, dn = x[near], d[near]
        v = dn / (xn + lam[near])
        total, term, v2 = dn * v, 2.0 * xn * v, v * v
        j = 1
        while True:
            term *= v2
            grown = total + term / (2 * j + 1)
            if (grown == total).all():
                break
            total, j = grown, j + 1
        out[near] = total
    return out


def _log_pmf(k, a, lam):
    """log P(X = k) for X ~ Poisson(lam = e^a), at integer-valued float k >= 0
    (1-D arrays). Where k and lam are both below 64 this is k a - log k! - lam;
    elsewhere those terms would cancel, and it is Loader's saddle-point form
    -stirlerr(k) - bd0(k, lam) - log(2 pi k) / 2 (C. Loader, "Fast and
    accurate computation of binomial probabilities", 2000)."""
    plain = (k < _SMALL) & (lam < _SMALL)
    out = np.empty_like(lam)
    kp = k[plain]
    out[plain] = kp * a[plain] - _LOG_FACTORIAL[kp.astype(np.intp)] - lam[plain]
    rest = ~plain
    kr, lr = k[rest], lam[rest]
    pos = kr > 0
    out[rest] = -lr  # k = 0
    kp, lp = kr[pos], lr[pos]
    out[np.flatnonzero(rest)[pos]] = -_stirlerr(kp) - _bd0(kp, lp) - 0.5 * (_LOG_2PI + np.log(kp))
    return out


def _log_sum(a, lam, start, count, down):
    """Sum P(X = k) for X ~ Poisson(lam = e^a) over ``count`` integers k
    from ``start``, down (``down``) or up; ``count`` may be inf. Returns the
    log of the sum, and the mean and variance of |k - start| under its terms.

    The sum runs away from the mean, where each term ratio is below one and
    shrinks, and stops once a term is under 1e-17 of the sum. Terms are
    running products of their ratios, taken in blocks whose width doubles
    each pass, up to :data:`_BLOCK_TERMS` terms at once, so a sum of n terms
    costs about log2(n) passes.
    """
    total, m1, m2 = np.ones_like(lam), np.zeros_like(lam), np.zeros_like(lam)
    active = np.flatnonzero(count > 1)
    s, n = start[active], count[active]
    scale = 1.0 / lam[active] if down else lam[active]
    last = np.ones(len(active))
    done, width = 1, 4
    while len(active):
        j = np.arange(done, done + width, dtype=np.float64)
        if down:  # term j / term j-1 = (start - j + 1) / lam
            ratio = np.subtract(s, j[:, None] - 1.0)
            ratio *= scale
        else:  # lam / (start + j)
            ratio = np.add(s, j[:, None])
            np.divide(scale, ratio, out=ratio)
        short = np.flatnonzero(n < done + width)
        ratio[:, short] *= j[:, None] < n[short]  # past the last term
        terms = np.cumprod(ratio, axis=0, out=ratio)
        terms *= last
        total[active] += terms.sum(axis=0)
        m1[active] += j @ terms
        m2[active] += (j * j) @ terms
        last = terms[-1]
        done += width
        keep = (last > 1e-17 * total[active]) & (n > done)
        active, s, n, scale, last = active[keep], s[keep], n[keep], scale[keep], last[keep]
        width = min(2 * width, max(4, _BLOCK_TERMS // max(len(active), 1)))
    mean = m1 / total
    return _log_pmf(start, a, lam) + np.log(total), mean, m2 / total - mean * mean


def _poisson_interval(a, lo, hi):
    """For X ~ Poisson(lam = e^a), elementwise over arrays of one shape:
    log P(lo <= X <= hi), and the mean and variance of X given
    lo <= X <= hi; -inf, 0 and 0 where lo > hi. ``hi`` may be inf.

    An interval below the mean is summed from hi down, and one above it from
    lo up (:func:`_log_sum`). A bounded one holding the mean is split at the
    mode m = floor(lam) into [lo, m], summed down, and [m + 1, hi], summed
    up, and the two parts are mixed, so neither its probability nor its
    variance is a small difference of large numbers however narrow it is.
    [lo, inf) holding the mean is one less its lower tail [0, lo - 1], and
    its moments follow from lam P(X = lo - 1) / P(X >= lo); [0, inf) is
    taken directly. So no sum is longer than its interval or than the
    spread of its terms, whatever lam is.
    """
    shape = np.shape(a)
    a, lo, hi = np.ravel(a), np.ravel(lo), np.ravel(hi)
    log_p = np.full(a.shape, -np.inf)
    mean, var = np.zeros(a.shape), np.zeros(a.shape)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        lam = np.exp(a)
        mode = np.floor(lam)
        live = lo <= hi
        below = live & (hi < lam)
        above = live & (lo > lam)
        split = live & ~below & ~above & (hi < np.inf)
        tail = live & ~below & ~above & (hi == np.inf) & (lo > 0)
        down = np.flatnonzero(below | split | tail)
        top = np.where(below, hi, np.where(split, mode, lo - 1.0))[down]
        count = np.where(below, hi - lo, np.where(split, mode - lo, lo - 1.0))[down] + 1.0
        log_p[down], gap, var[down] = _log_sum(a[down], lam[down], top, count, True)
        mean[down] = top - gap
        up = np.flatnonzero(above | split & (hi > mode))
        bottom = np.where(above, lo, mode + 1.0)[up]
        log_u, gap, var_u = _log_sum(a[up], lam[up], bottom, hi[up] - bottom + 1.0, False)
        # mix in the upper part with weight w; where there is no lower part, w = 1
        log_pu = np.logaddexp(log_p[up], log_u)
        w = np.exp(log_u - log_pu)
        gap += bottom - mean[up]
        mean[up] += w * gap
        var[up] = (1.0 - w) * var[up] + w * var_u + w * (1.0 - w) * gap * gap
        log_p[up] = log_pu
        t = np.flatnonzero(tail)  # log_p holds the lower tail's there
        log_p[t] = np.log1p(-np.exp(log_p[t]))
        lam_t, lo_t = lam[t], lo[t]
        edge = np.exp(a[t] + _log_pmf(lo_t - 1.0, a[t], lam_t) - log_p[t])
        mean[t] = lam_t + edge
        var[t] = lam_t + (lo_t - lam_t) * edge - edge * edge
        whole = live & (lo == 0) & (hi == np.inf)
        log_p[whole] = 0.0
        mean[whole] = var[whole] = lam[whole]
    return log_p.reshape(shape), mean.reshape(shape), var.reshape(shape)


class _Chunk:
    """A block of dyads and the part of their data that does not depend on
    the dependence terms: the observed counts y and the reverse counts y_ji,
    int64 as they are gathered, and the linear design x. The dyad indices,
    the weights and the int64 node volume vectors, of a network or a chain
    state, are shared. :func:`_dyad_state` rebuilds the segments from
    :meth:`neighbourhood` on every pass.
    """

    def __init__(self, cs, ii, jj, w, y, y_ji, out_vol, in_vol):
        self.cs, self.ii, self.jj, self.w = cs, ii, jj, w
        self.y, self.y_ji, self.out_vol, self.in_vol = y, y_ji, out_vol, in_vol
        self.lin, self.nl = cs.lin_pos, cs.nonlin_pos
        self.x = cs.linear_design(ii, jj)

    def neighbourhood(self):
        """The dyads' s = (y_ij, out_i, in_j, y_ji, in_i, out_j)."""
        ii, jj, out_vol, in_vol = self.ii, self.jj, self.out_vol, self.in_vol
        return self.y, out_vol[ii], in_vol[jj], self.y_ji, in_vol[ii], out_vol[jj]


def _network_chunk(cs, network, ii, jj, w):
    """The :class:`_Chunk` of the dyads (ii, jj) of ``network``."""
    return _Chunk(cs, ii, jj, w, network.values_at(ii, jj), network.values_at(jj, ii),
                  network.out_volumes(), network.in_volumes())


def _dyad_state(ch, theta, v):
    """log P(y_ij = v | rest) per dyad of chunk ``ch`` (-inf or NaN where
    some e^a_s overflows); per segment its share of the normalizer and the
    mean and variance of v within it; the segment intercepts c and slopes
    d (int8), which :meth:`ChangeStats.segment_terms` rebuilds, with the
    segment bounds, from :meth:`_Chunk.neighbourhood`; and the nonlinear
    statistics' local values c + d v at v, from the segment holding v."""
    v = v.astype(np.float64)  # as _log_factorial needs
    lo, hi, c, d = ch.cs.segment_terms(ch.neighbourhood())
    with np.errstate(over="ignore", invalid="ignore"):
        intercept = c @ theta[ch.nl]
        slope = (ch.x @ theta[ch.lin])[:, None] + d @ theta[ch.nl]
        log_p, mean, var = _poisson_interval(slope, lo, hi)
        log_z = intercept + np.exp(slope) + log_p
        top = log_z.max(axis=1, keepdims=True)
        share = np.exp(log_z - top)
        total = share.sum(axis=1, keepdims=True)
        rows = np.arange(len(v))
        at = np.sum(hi < v[:, None], axis=1)  # the segment holding v
        log_w = intercept[rows, at] + slope[rows, at] * v - _log_factorial(v)
        log_pmf = log_w - (top + np.log(total))[:, 0]
        q = share / total
    return log_pmf, q, mean, var, c, d, c[rows, at] + d[rows, at] * v[:, None]


def conditional_log_pmf(model, theta, network, nodes, dyads, dyad, v):
    """log P(y_ij = v | rest of network) under the model at ``theta``.

    Exact: the normalizer is a sum of closed-form Poisson pieces over the
    whole support 0, 1, 2, ... For models whose terms are all affine in
    y_ij this reduces to a Poisson log-pmf with rate exp(theta . unit-change).
    """
    theta = model.check_theta(theta)
    v = check_count(v, "v")
    i, j = dyad
    if i == j:
        raise ValidationError("dyad (%r, %r) is a self-loop" % (i, j))
    network.value(i, j)  # checks both nodes
    chunk = _network_chunk(ChangeStats(model, network, nodes, dyads), network,
                           np.array([int(i)], dtype=np.intp),
                           np.array([int(j)], dtype=np.intp), np.ones(1))
    value = float(_dyad_state(chunk, theta, np.array([v]))[0][0])
    if not math.isfinite(value):
        raise EstimationError(
            "non-finite conditional normalizer for dyad (%d, %d); "
            "check theta and covariates for NaN/inf" % (i, j))
    return value


# -- weighted pseudo-likelihood ----------------------------------------------

def _cpus():
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _thread_map(fn, items):
    """``[fn(item) for item in items]``, computed on a thread pool of
    :func:`_cpus` workers, but at most 8, created and shut down inside the
    call, or in the calling thread where there is one worker or one item.
    Each call runs under the caller's numpy error state, which threads do
    not inherit."""
    from concurrent.futures import ThreadPoolExecutor
    workers = min(_cpus(), 8)
    if workers == 1 or len(items) == 1:
        return [fn(item) for item in items]
    err = np.geterr()

    def call(item):
        with np.errstate(**err):
            return fn(item)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(call, items))


def _chunks(model, network, nodes, dyads, sample):
    if sample.n_dyads == 0:
        raise EstimationError("dyad sample is empty")
    cs = ChangeStats(model, network, nodes, dyads)
    ii = np.asarray(sample.src, dtype=np.intp)
    jj = np.asarray(sample.dst, dtype=np.intp)
    w = np.asarray(sample.weights, dtype=np.float64)
    return _thread_map(lambda k: _network_chunk(cs, network, ii[k:k + _CHUNK_DYADS],
                                                jj[k:k + _CHUNK_DYADS], w[k:k + _CHUNK_DYADS]),
                       range(0, len(w), _CHUNK_DYADS))


def _chunk_objective(ch, theta, order):
    """One chunk's share of :func:`_objective`, unpenalized: (value, gradient
    or None, Hessian or None). The derivatives are taken only where the value
    is finite.

    Each dyad's conditional is a mixture over segments with weights q_s;
    within segment s, v has mean m_s and variance s2_s (see
    :func:`_poisson_interval`). A linear term changes by x * v, a
    nonlinear one by h_s + d_s * (v - m_s) with h_s = c_s + d_s * m_s.
    Covariances are summed as within-segment plus between-segment parts,
    each around its own mean, so no large raw moments cancel.
    """
    log_pmf, q, m, s2, c, d, nl_obs = _dyad_state(ch, theta, ch.y)
    value = float(ch.w @ log_pmf)
    if not (order and math.isfinite(value)):
        return value, None, None
    lin, nl, x, w = ch.lin, ch.nl, ch.x, ch.w
    n, s, k = d.shape
    mean_v = np.sum(q * m, axis=1)
    h = c + d * m[:, :, None]
    mean_nl = np.einsum("dsk,ds->dk", h, q)
    grad = np.zeros(len(theta))
    grad[lin] = x.T @ (w * (ch.y - mean_v))
    grad[nl] = w @ (nl_obs - mean_nl)
    if order < 2:
        return value, grad, None
    hess = np.zeros((len(theta), len(theta)))
    dm = m - mean_v[:, None]
    dev = np.subtract(h, mean_nl[:, None, :], out=h)  # h is not needed again
    var_v = np.sum(q * (dm * dm + s2), axis=1)
    cov_lin_nl = np.einsum("ds,dsk->dk", q * dm, dev) + np.einsum("ds,dsk->dk", q * s2, d)
    wq = w[:, None] * q
    hess[np.ix_(lin, lin)] = -(x.T @ (x * (w * var_v)[:, None]))
    block = x.T @ (w[:, None] * cov_lin_nl)
    hess[np.ix_(lin, nl)] = -block
    hess[np.ix_(nl, lin)] = -block.T
    dev_wq, d_wq_s2 = dev * wq[:, :, None], d * (wq * s2)[:, :, None]
    dev, dev_wq, d_wq_s2, d = (a.reshape(n * s, k) for a in (dev, dev_wq, d_wq_s2, d))
    hess[np.ix_(nl, nl)] = -(dev.T @ dev_wq + d.T @ d_wq_s2)
    return value, grad, hess


def _objective(chunks, theta, ridge_lambda, order):
    """(penalized objective, gradient, Hessian), where ``order`` 0, 1 or 2
    asks for the value alone, with the gradient, or with both; what is not
    asked for is None. A non-finite value (NaN or -inf where a normalizer
    overflows) comes back with no derivatives.

    A worker evaluates a whole chunk (:func:`_chunk_objective`), and the
    calling thread adds the chunks' results in chunk order, so the bytes do
    not depend on the number of workers.
    """
    value = 0.0
    grad, hess = np.zeros(len(theta)), np.zeros((len(theta), len(theta)))
    for v, g, h in _thread_map(lambda ch: _chunk_objective(ch, theta, order), chunks):
        value += v
        if order and math.isfinite(value):
            grad += g
            if order == 2:
                hess += h
    value -= ridge_lambda * float(theta @ theta)
    if not math.isfinite(value):
        return value, None, None
    grad -= 2.0 * ridge_lambda * theta
    hess -= 2.0 * ridge_lambda * np.eye(len(theta))
    return value, (grad if order else None), (hess if order == 2 else None)


def _check_ridge(ridge_lambda):
    if not (isinstance(ridge_lambda, numbers.Real) and 0 <= ridge_lambda < math.inf):
        raise ValidationError("ridge_lambda must be >= 0 and finite, got %r" % (ridge_lambda,))


def penalized_pseudo_loglik(model, theta, network, nodes, dyads, sample,
                            ridge_lambda=0.0, *, gradient=False, hessian=False):
    """Weighted penalized pseudo-log-likelihood, optionally with derivatives.

    Value: sum over sampled dyads of weight * conditional log-pmf at the
    observed count, minus ``ridge_lambda * ||theta||^2``. The gradient is
    the weighted sum of (observed - conditional mean) statistics minus the
    penalty gradient; the Hessian is minus the weighted conditional
    covariances minus ``2 * ridge_lambda * I``.
    """
    _check_ridge(ridge_lambda)
    theta = model.check_theta(theta)
    chunks = _chunks(model, network, nodes, dyads, sample)
    order = 2 if hessian else 1 if gradient else 0
    value, grad, hess = _objective(chunks, theta, ridge_lambda, order)
    if not math.isfinite(value):
        raise EstimationError("pseudo-log-likelihood is non-finite at theta=%r" % (theta,))
    return (value, grad, hess)[:order + 1] if order else value


# -- fitting -----------------------------------------------------------------

@dataclass
class FitResult:
    """Outcome of a pseudo-likelihood fit.

    ``std_errors`` are pseudo-likelihood standard errors from the inverse
    penalized Hessian; they carry no design-based correction for dyad
    subsampling. NaN entries mean the Hessian was not invertible.
    ``pseudo_bic`` is :func:`pseudo_bic` of the fit, or NaN when the fit did
    not converge or its sample's weight total is at most 1.
    """

    theta: np.ndarray
    std_errors: np.ndarray
    penalized_pll: float
    unpenalized_pll: float
    pseudo_bic: float
    converged: bool
    iterations: int
    ridge_lambda: float
    sample_meta: dict
    model: ModelSpec
    diagnostics: dict

    @property
    def labels(self):
        return self.model.labels

    def coefficient(self, label):
        return float(self.theta[self.model.index_of(label)])

    def to_json_dict(self):
        return {
            "model": model_to_dict(self.model),
            "labels": list(self.labels),
            "theta": [float(x) for x in self.theta],
            "std_errors": [float(s) for s in self.std_errors],
            "penalized_pll": self.penalized_pll,
            "unpenalized_pll": self.unpenalized_pll,
            "pseudo_bic": self.pseudo_bic,
            "converged": self.converged,
            "iterations": self.iterations,
            "ridge_lambda": self.ridge_lambda,
            "sample": self.sample_meta,
            "diagnostics": self.diagnostics,
            "se_kind": "pseudo-likelihood (inverse penalized Hessian)",
        }

    def write_json(self, path):
        write_json(path, self.to_json_dict())

    def write_coefficients_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["term", "estimate", "std_error"])
            for label, est, se in zip(self.labels, self.theta, self.std_errors):
                writer.writerow([label, repr(float(est)),
                                 "" if not math.isfinite(se) else repr(float(se))])


def _poisson(chunks, theta_lin, ridge_lambda):
    """:func:`_objective` with every dependence term at 0, where each conditional
    is Poisson(e^eta), eta = x . theta_lin: the sum of w (y eta - e^eta)
    less the ridge (log y! dropped), and its (gradient, Hessian)."""
    value = -ridge_lambda * float(theta_lin @ theta_lin)
    grad = -2.0 * ridge_lambda * theta_lin
    hess = -2.0 * ridge_lambda * np.eye(len(theta_lin))
    with np.errstate(over="ignore", invalid="ignore"):
        for ch in chunks:
            eta = ch.x @ theta_lin
            lam = np.exp(eta)
            value += float(ch.w @ (ch.y * eta - lam))
            grad += ch.x.T @ (ch.w * (ch.y - lam))
            hess -= ch.x.T @ (ch.x * (ch.w * lam)[:, None])
    return value, grad, hess


def _newton(objective, theta, tol, max_iter, notes, stage=""):
    """Damped Newton ascent from ``theta`` until the gradient max-norm is
    below ``tol`` or after ``max_iter`` steps. ``objective(theta)`` returns
    (value, gradient, Hessian). Takes a scaled gradient step where the
    Hessian is not negative definite and halves each step until the value
    improves. Returns (theta, value, gradient, Hessian, steps)."""
    value, grad, hess = objective(theta)
    if not math.isfinite(value):
        raise EstimationError("pseudo-log-likelihood is non-finite at theta=%r" % (theta,))
    iterations = 0
    while iterations < max_iter and float(np.abs(grad).max()) >= tol:
        iterations += 1
        try:
            chol = np.linalg.cholesky(-hess)
            step = np.linalg.solve(chol.T, np.linalg.solve(chol, grad))
        except np.linalg.LinAlgError:
            scale = max(1.0, float(np.abs(np.diag(hess)).max()))
            step = grad / scale
            notes.append("%sindefinite Hessian at iteration %d; gradient step" % (stage, iterations))
        slope = float(grad @ step)
        t = 1.0
        for _ in range(40):
            cand = theta + t * step
            # a rejected candidate's derivatives may overflow; an accepted one's are checked
            with np.errstate(over="ignore", invalid="ignore"):
                cand_value, cand_grad, cand_hess = objective(cand)
            if cand_value >= value + 1e-4 * t * slope - 1e-12 * (1.0 + abs(value)):
                break
            t *= 0.5
        else:
            notes.append("%sstep halving stalled at iteration %d" % (stage, iterations))
            break
        theta, value, grad, hess = cand, cand_value, cand_grad, cand_hess
        if not (np.isfinite(grad).all() and np.isfinite(hess).all()):
            raise EstimationError("non-finite pseudo-likelihood derivatives at theta=%r after "
                                  "%siteration %d" % (theta, stage, iterations))
        if float(np.linalg.norm(theta)) > _THETA_NORM_GUARD:
            raise EstimationError(
                "theta norm exceeded %g after %siteration %d; the model is "
                "diverging (check covariate scaling or increase ridge_lambda)"
                % (_THETA_NORM_GUARD, stage, iterations))
    return theta, value, grad, hess, iterations


def fit_mple(model, network, nodes, dyads, sample, *, ridge_lambda=0.01,
             tol=1e-6, max_iter=50):
    """Fit theta by damped Newton ascent on the penalized pseudo-likelihood.

    Newton first fits the linear terms on the Poisson reference (the
    pseudo-likelihood with every dependence term at 0), then every term on
    the full one from there. ``max_iter`` bounds each stage; ``iterations``
    counts the full stage's steps. Standard errors come from the inverse
    penalized Hessian at the optimum; a singular Hessian yields NaN
    standard errors and a non-converged flag, not fabricated values.
    """
    _check_ridge(ridge_lambda)
    if not (isinstance(tol, numbers.Real) and tol > 0):
        raise ValidationError("tol must be > 0, got %r" % (tol,))
    if not (is_integer(max_iter) and max_iter >= 1):
        raise ValidationError("max_iter must be >= 1 and an integer, got %r" % (max_iter,))
    chunks = _chunks(model, network, nodes, dyads, sample)
    n_terms = model.n_terms
    theta = np.zeros(n_terms)
    lin = chunks[0].lin

    notes = []
    start_iterations = 0
    if len(lin):
        theta[lin], _, grad, _, start_iterations = _newton(
            lambda t: _poisson(chunks, t, ridge_lambda), theta[lin], tol, max_iter, notes,
            "Poisson start ")
        if float(np.abs(grad).max()) >= tol:
            notes.append("Poisson start not converged; the full fit continues from it")
    theta, value, grad, hess, iterations = _newton(
        lambda t: _objective(chunks, t, ridge_lambda, 2), theta, tol, max_iter, notes)
    gmax = float(np.abs(grad).max())
    converged = gmax < tol

    neg_hess = -hess
    std_errors = np.full(n_terms, np.nan)
    cond = float(np.linalg.cond(neg_hess))
    if math.isfinite(cond) and cond < 1e12:
        try:
            chol = np.linalg.cholesky(neg_hess)
        except np.linalg.LinAlgError:
            notes.append("Hessian not positive definite at optimum")
            converged = False
        else:  # the diagonal of (L L^T)^-1 = L^-T L^-1
            std_errors = np.sqrt(np.sum(np.linalg.inv(chol) ** 2, axis=0))
    else:
        notes.append("singular or ill-conditioned Hessian at optimum (cond=%.3g)" % cond)
        converged = False

    fit = FitResult(
        theta=theta,
        std_errors=std_errors,
        penalized_pll=value,
        unpenalized_pll=value + ridge_lambda * float(theta @ theta),
        pseudo_bic=math.nan,
        converged=converged,
        iterations=iterations,
        ridge_lambda=ridge_lambda,
        sample_meta=sample.summary(),
        model=model,
        diagnostics={
            "start_iterations": start_iterations,
            "gradient_max_norm": gmax,
            "hessian_condition": cond,
            "notes": notes,
        },
    )
    if converged and sample.weight_total > 1:
        fit.pseudo_bic = pseudo_bic(fit)
    return fit


def pseudo_bic(fit):
    """-2 * unpenalized weighted pseudo-log-likelihood + k * log(n), where n
    is the weighted dyad total of the fit's sample."""
    if not fit.converged:
        raise EstimationError("pseudo_bic requires a converged fit")
    n = fit.sample_meta["weight_total"]
    if n <= 1:
        raise ValidationError("pseudo_bic needs a sample weight total above 1")
    return -2.0 * fit.unpenalized_pll + fit.model.n_terms * math.log(n)


def effect_multiplier(coef, delta, kind):
    """Percent change in expected flow for a covariate shift.

    ``additive_pp``: the covariate moves by ``delta`` in its own units
    (e.g. 0.10 for ten percentage points on a proportion scale), giving
    100 * (exp(coef * delta) - 1). ``relative``: the covariate's underlying
    quantity moves by a factor (1 + delta) and enters the model in logs,
    giving 100 * ((1 + delta) ** coef - 1).
    """
    if kind == "additive_pp":
        return 100.0 * (math.exp(coef * delta) - 1.0)
    if kind == "relative":
        if delta <= -1:
            raise ValidationError("relative delta must exceed -1, got %r" % (delta,))
        return 100.0 * ((1.0 + delta) ** coef - 1.0)
    raise ValidationError("kind must be 'additive_pp' or 'relative', got %r" % (kind,))
