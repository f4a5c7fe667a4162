"""Markov-chain simulation from a fitted model, plus model-adequacy checks
and coefficient-knockout counterfactuals.

The chain is a Metropolis-Hastings sampler on the model's Poisson reference.
Each proposal for an ordered dyad (i, j) draws a fresh value
v' ~ Poisson(exp(rate_ij)), where rate_ij is the linear part of the log-rate
(:meth:`ChangeStats.linear_rate_matrix`). That draw cancels the linear terms
and the 1/v! reference factor exactly, so v' replaces y_ij with probability
min(1, exp(sum_k theta_k [g_k(v') - g_k(y_ij)])) over the dependence terms
alone, each evaluated through :func:`ergmflow.stats.dependence_pieces`.
Without dependence terms every proposal is accepted and is an exact
independent draw of its dyad. The chain has no tuning knobs.

The dyads are proposed in sweeps that visit every ordered dyad once. A
sweep is the circle-method round robin (n - 1 rounds, n for odd n) under a
fresh random relabelling of the nodes, each round once per direction, so it
is a sequence of blocks of n // 2 dyads that share no node. A dyad's
acceptance reads only y_ij, y_ji and the in- and out-volumes of i and j,
none of which another dyad of its block changes, so each block is updated
in one vectorized step with exactly the result of updating its dyads one by
one (Besag's coding sets). Chain lengths stay counted in proposals; a block
is cut short where a sample is recorded. The random draws are made per chunk
of about ``_RNG_BLOCK`` proposals, so the chain's temporaries do not grow
with the network.

Every simulation is resolved once into the Poisson means and the active
(theta_k, kind) dependence terms, and runs through :func:`_chain`. Its
``ChainConfig.n_chains`` chains run side by side in one state array, one
row per chain, from one random stream: they share the sweep schedule,
which reads no state, so each is still an exact Metropolis-Hastings chain,
and each block of every chain is updated in one numpy pass.

Every chain records, per sample, the Sum statistic and the per-node in- and
out-volume vectors from its running state (:class:`ChainRun`). Only
:func:`mcmc_simulate` also builds a :class:`FlowNetwork` snapshot per sample;
the adequacy check and the knockout read the recorded summaries and build no
networks. Monte-Carlo error is judged one way, by the effective sample size
of the Sum series (:func:`_ess`): every standard error and mixing warning
reads it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass

import numpy as np

from ._jsonio import write_json
from .errors import ValidationError
from .network import FlowNetwork
from .stats import ChangeStats, dependence_pieces

__all__ = [
    "ChainConfig",
    "ChainRun",
    "mcmc_simulate",
    "adequacy_check",
    "AdequacyReport",
    "expected_total_flow",
    "knockout_experiment",
    "KnockoutReport",
]

_RNG_BLOCK = 1 << 16
# The largest mean numpy's Generator.poisson accepts (int64 max less 10 sd).
_POISSON_MAX = np.iinfo("l").max - 10 * np.sqrt(np.iinfo("l").max)


@dataclass(frozen=True)
class ChainConfig:
    """Chain controls: lengths counted in proposals, and the chain count.

    ``burn_in`` and ``thin`` default to 10 and 2 proposals per dyad, which
    are exactly 10 and 2 sweeps over every dyad. Without dependence terms
    every proposal is an exact independent draw of its dyad, so a dyad is
    stationary once it has been proposed. A run warns when either is
    shorter than one sweep, and when the effective sample size of its Sum
    statistic is below half its samples; raise both then.

    The ``n_networks`` samples are split as evenly as possible over
    ``n_chains`` chains (the config key ``chain.n_chains``), at most one
    chain per sample. The chains run side by side in one process, all from
    one random stream at ``seed``, so results depend on ``n_chains``. More
    chains buy diagnostics, not cores: they never run in parallel.
    """

    n_networks: int = 100
    burn_in: int | None = None
    thin: int | None = None
    seed: int = 0
    n_chains: int = 1

    def __post_init__(self):
        if self.n_networks < 1:
            raise ValidationError("n_networks must be >= 1")
        if self.n_chains < 1:
            raise ValidationError("n_chains must be >= 1")
        if self.burn_in is not None and self.burn_in < 1:
            raise ValidationError("burn_in must be >= 1 when given")
        if self.thin is not None and self.thin < 1:
            raise ValidationError("thin must be >= 1 when given")

    def resolved(self, n_dyads):
        burn = self.burn_in if self.burn_in is not None else 10 * n_dyads
        thin = self.thin if self.thin is not None else max(1, 2 * n_dyads)
        return int(burn), int(thin)


@dataclass
class ChainRun:
    """Per-sample summaries of a chain (or of merged chains) and its
    acceptance counts.

    ``in_volumes`` and ``out_volumes`` are (samples, n_nodes) int64 arrays,
    ``sum_series`` the total flow of each sample, ``sum_ess`` the sum of
    each chain's :func:`_ess` of it, ``warnings`` those of :func:`_chain`.
    ``networks`` holds the sampled :class:`FlowNetwork` states of
    :func:`mcmc_simulate` and is empty otherwise.
    """

    in_volumes: np.ndarray
    out_volumes: np.ndarray
    sum_series: np.ndarray
    n_proposals: int
    n_accepted: int
    sum_ess: float
    warnings: list
    networks: list

    # Every Poisson proposal is a valid count, so none is ever rejected as
    # invalid; the attribute stays readable for callers that report it.
    n_rejected_invalid = 0

    @property
    def acceptance_rate(self):
        return self.n_accepted / self.n_proposals if self.n_proposals else 0.0


def _ess(series):
    """Effective sample size of one chain's series, at most its length m, by
    Geyer's initial positive sequence. A series shorter than 4 or without
    variance counts each value once."""
    x = np.asarray(series, dtype=np.float64)
    m = len(x)
    if m < 4 or x.std() == 0:
        return float(m)
    x = x - x.mean()
    # autocovariance by FFT, zero-padded past 2m - 1 so no lag wraps around
    size = 1 << (2 * m - 2).bit_length()
    f = np.fft.rfft(x, size)
    acf = np.fft.irfft(f.real ** 2 + f.imag ** 2, size)[:m] / (x @ x)
    pairs = acf[:m - 1:2] + acf[1::2]  # acf(2t) + acf(2t + 1)
    positive = pairs[:np.append(pairs <= 0, True).argmax()]  # up to the first <= 0
    return m / max(2.0 * positive.sum() - 1.0, 1.0)


def mcmc_simulate(model, theta, nodes, dyads, init, config):
    """Run the chains of ``config`` and return their sampled networks and
    summaries.

    Returns a :class:`ChainRun` whose ``networks`` are the
    ``config.n_networks`` states, in chain order, each chain's taken every
    ``thin`` proposals after ``burn_in`` proposals, with the Sum-statistic
    series, the per-sample node volumes and the acceptance counts. Identical
    (seed, config, theta) always reproduce the identical sequence.
    """
    return _chain(*_resolve(model, theta, nodes, dyads, init), config,
                  keep_networks=True)


def _proposal_means(rate, node_ids):
    """exp(rate) off the diagonal, each checked to be a usable Poisson mean.

    A mean may be at most the largest one numpy's Poisson sampler accepts,
    divided by the number of dyads, so that the total flow and every volume
    the chain keeps fit in int64. The diagonal holds no dyad and is skipped.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        lam = np.exp(rate)
    np.fill_diagonal(lam, 0.0)
    n = len(lam)
    bad = np.argwhere(~(lam <= _POISSON_MAX / (n * (n - 1))))
    if len(bad):
        i, j = (int(k) for k in bad[0])
        name = (i, j) if node_ids is None else (node_ids[i], node_ids[j])
        raise ValidationError(
            "dyad %r -> %r has linear log-rate %r, whose exp is not a usable "
            "Poisson mean; theta is out of range" % (name[0], name[1], rate[i, j]))
    return lam


def _change_stats(model, init, nodes, dyads):
    """The :class:`ChangeStats` a simulation from ``init`` is resolved with;
    a chain needs at least 2 nodes."""
    if init.n_nodes < 2:
        raise ValidationError("a chain needs a network of at least 2 nodes, got %d"
                              % init.n_nodes)
    return ChangeStats(model, init, nodes, dyads)


def _inputs(cs, theta, rate, init):
    """(Poisson means of the linear log-rate ``rate``, [(theta_k, kind)] of
    the nonzero dependence terms, init), all that a chain reads."""
    dependence = [(float(theta[pos]), kind) for pos, kind in cs.nonlin if theta[pos] != 0.0]
    return _proposal_means(rate, init.node_ids), dependence, init


def _resolve(model, theta, nodes, dyads, init):
    """Check theta and ``init`` and return a chain's :func:`_inputs`."""
    theta = model.check_theta(theta)
    cs = _change_stats(model, init, nodes, dyads)
    return _inputs(cs, theta, cs.linear_rate_matrix(theta), init)


def _rounds(n, rounds, perms):
    """(src, dst) of the given rounds of the circle-method round robin on n
    nodes, in order, each under its sweep's node relabelling (row
    ``rounds // per_sweep`` of ``perms``) and once per direction.

    Over the per_sweep = n - 1 rounds of a sweep (n for odd n, where each
    node sits one round out) every unordered pair of nodes meets exactly
    once, and no node appears twice in a round, so every run of n // 2 dyads
    is node-disjoint.
    """
    m = n + n % 2  # odd n gets a dummy node m - 1, and its partner sits out
    r = (rounds % (m - 1))[:, None]
    k = np.arange(1, m // 2)
    a = (r + k) % (m - 1)
    b = (r - k) % (m - 1)
    if m == n:  # node n - 1 meets node r in round r
        a = np.column_stack([a, np.full_like(r, n - 1)])
        b = np.column_stack([b, r])
    perm = perms[rounds // (m - 1)]
    a = np.take_along_axis(perm, a, axis=1)
    b = np.take_along_axis(perm, b, axis=1)
    return np.stack([a, b], axis=1).ravel(), np.stack([b, a], axis=1).ravel()


def _schedule(n, n_steps, rng, n_chains):
    """The chains' first ``n_steps`` proposal dyads, as chunks of (src, dst)
    arrays, which every one of the ``n_chains`` chains follows, of about
    ``_RNG_BLOCK`` proposals over all chains each.

    A sweep visits every ordered dyad once: the round robin under a fresh
    random relabelling of the nodes, one ``rng.permuted`` row per sweep, each
    round once per direction. A chunk holds whole rounds, so its consecutive
    runs of n // 2 dyads are node-disjoint blocks. It holds several whole
    sweeps when a sweep is shorter than its size, and at most one sweep
    otherwise, so its size does not grow with n.
    """
    per_sweep = n - 1 + n % 2
    rounds_per_chunk = max(1, _RNG_BLOCK // (2 * (n // 2) * n_chains))
    if rounds_per_chunk >= per_sweep:
        rounds_per_chunk -= rounds_per_chunk % per_sweep
    first = 0  # round of the current sweep that the next chunk starts at
    while n_steps > 0:
        count = min(rounds_per_chunk, per_sweep - first) if first else rounds_per_chunk
        if first == 0:
            perms = rng.permuted(np.tile(np.arange(n), (-(-count // per_sweep), 1)),
                                 axis=1)
        src, dst = _rounds(n, np.arange(first, first + count), perms)
        yield src[:n_steps], dst[:n_steps]
        n_steps -= len(src)
        first = (first + count) % per_sweep


def _run_blocks(state, n, dependence, src, dst, proposed, expo, cuts, record):
    """Propose value ``proposed[c, t]`` for dyad (src[t], dst[t]) of chain c,
    t in order, and accept it with probability min(1, exp(dlp)) as
    ``expo[c, t]`` >= -dlp, where dlp sums theta_k [g_k(v') - g_k(y_ij)]
    over ``dependence``.

    ``state`` is the (chains, n² + 2n) buffer of :func:`_dense_state`. Runs
    of n // 2 dyads from the start, cut after every position in ``cuts``,
    must be node-disjoint: each run is updated at once in every chain,
    which is exact because a dyad's acceptance reads only y_ij, y_ji and the
    volumes of i and j of its own chain. The chain axis is folded into the
    dyad axis, position-major, so that a run of every chain is one slice.
    ``record()`` is called after each cut. Returns the number of rejected
    proposals of each chain.
    """
    n_chains, width = state.shape
    nn = n * n
    size = len(src)
    flat = state.reshape(-1)
    rows = np.arange(0, n_chains * width, width)  # each chain's offset in flat
    # y_ij, out_i and in_j, which an accepted change moves, then y_ji, in_i, out_j
    at = np.empty((6, size, n_chains), dtype=np.intp)
    np.add((src * n + dst)[:, None], rows, out=at[0])
    np.add((dst * n + src)[:, None], rows, out=at[3])
    np.add(src[:, None], rows + nn, out=at[1])
    np.add(src[:, None], rows + (nn + n), out=at[4])
    np.add(dst[:, None], rows + (nn + n), out=at[2])
    np.add(dst[:, None], rows + nn, out=at[5])
    at = at.reshape(6, -1)
    stops = np.union1d(np.append(np.arange(n // 2, size, n // 2), size), cuts)
    stops = (stops * n_chains).tolist()
    cuts = set((cuts * n_chains).tolist())
    proposed = proposed.T.ravel()
    neg_e = np.negative(expo.T, order="C").ravel()
    rejected = np.empty(size * n_chains, dtype=bool)
    start = 0
    for stop in stops:
        s = flat.take(at[:, start:stop])
        v, out_i, in_j, y_ji, in_i, out_j = s
        vp = proposed[start:stop]
        dlp = 0.0
        for th, kind in dependence:
            for p, q in dependence_pieces(kind, v, y_ji, out_i, in_i, out_j, in_j):
                c = q - p  # min(p + x, q) is p + min(x, q - p)
                dlp = dlp + th * (np.minimum(vp, c) - np.minimum(v, c))
        rej = np.less(dlp, neg_e[start:stop], out=rejected[start:stop])
        flat.put(at[:3, start:stop], s[:3] + np.where(rej, 0, vp - v))
        if stop in cuts:
            record()
        start = stop
    return np.count_nonzero(rejected.reshape(size, n_chains), axis=0)


def _dense_state(network, n_chains):
    """The state of ``n_chains`` chains started at ``network``: per chain,
    one int64 row holding y row-major, then the out- and in-volumes, so that
    one gather reads all a block's acceptance needs."""
    n = network.n_nodes
    nn = n * n
    state = np.zeros((n_chains, nn + 2 * n), dtype=np.int64)
    src, dst, val = network.edge_arrays()
    state[0, src * n + dst] = val
    state[0, nn:nn + n] = network.out_volumes()
    state[0, nn + n:] = network.in_volumes()
    state[1:] = state[0]
    return state


def _chain(lam, dependence, init, config, keep_networks=False):
    """Run the ``config.n_chains`` chains of one simulation over
    :func:`_resolve`'s inputs and merge them, in chain order, into one
    :class:`ChainRun`, which holds the network snapshots only when
    ``keep_networks`` is set.

    The chains share one state array, started at ``init``, one random stream
    at ``config.seed`` and the sweep schedule; each chunk draws every
    chain's proposals and exponentials as one (chains, chunk) array. All
    chains record ceil(n_networks / chains) samples at the same steps, and
    chain k keeps its first q + (k < r) of them, q, r = divmod(n_networks,
    chains); at most ``n_networks`` chains run. It warns when ``sum_ess`` is
    below half the samples, and when ``burn_in``, or ``thin`` with 2 samples a
    chain, is below a sweep; a sweep's dyads are distinct, so shares are exact.
    """
    n = init.n_nodes
    nn = n * n
    n_dyads = n * (n - 1)
    burn_in, thin = config.resolved(n_dyads)
    n_chains = min(config.n_chains, config.n_networks)
    q, r = divmod(config.n_networks, n_chains)
    keep = [q + (k < r) for k in range(n_chains)]  # samples each chain keeps
    m = keep[0]  # samples each chain records
    rng = np.random.default_rng(config.seed)

    state = _dense_state(init, n_chains)

    networks = [[] for _ in range(n_chains)]
    volumes = np.empty((m, n_chains, 2 * n), dtype=np.int64)  # out-, then in-volumes
    k = 0

    def record():
        nonlocal k
        if keep_networks:
            for c in range(n_chains):
                if k < keep[c]:
                    networks[c].append(FlowNetwork.from_dense(
                        state[c, :nn].reshape(n, n), node_ids=init.node_ids))
        volumes[k] = state[:, nn:]
        k += 1

    total_steps = burn_in + thin * m
    record_at = np.arange(burn_in + thin, total_steps + 1, thin)
    n_rejected = 0
    step = 0
    for src, dst in _schedule(n, total_steps, rng, n_chains):
        size = (n_chains, len(src))
        proposed = rng.poisson(lam[src, dst], size)
        expo = rng.standard_exponential(size)
        lo, hi = np.searchsorted(record_at, (step, step + len(src)), side="right")
        n_rejected += int(_run_blocks(state, n, dependence, src, dst, proposed, expo,
                                      record_at[lo:hi] - step, record).sum())
        step += len(src)

    kept = np.concatenate([volumes[:keep[c], c] for c in range(n_chains)])
    outs = kept[:, :n].copy()
    sums = outs.sum(axis=1).astype(np.float64)
    ess = sum(map(_ess, np.split(sums, np.cumsum(keep)[:-1])))
    warnings = ["%s of %d proposals covers %.3g sweeps: at least %.1f%% of dyads go "
                "unproposed within it" % (name, x, x / n_dyads, 100.0 - 100.0 * x / n_dyads)
                for name, x in (("burn_in", burn_in), ("thin", thin if m > 1 else n_dyads))
                if x < n_dyads]
    if ess < 0.5 * len(sums):
        warnings.append("Sum-statistic effective sample size %.3g of %d networks is "
                        "below half; raise burn_in and thin" % (ess, len(sums)))
    return ChainRun(kept[:, n:].copy(), outs, sums,
                    n_chains * total_steps, n_chains * total_steps - n_rejected,
                    ess, warnings, [net for nets in networks for net in nets])


# -- adequacy ------------------------------------------------------------------

@dataclass
class AdequacyReport:
    """Observed versus simulated per-node in/out volumes.

    Envelopes are the min/max plus the 2.5%/97.5% quantile band over the
    simulated networks; correlations are Pearson correlations between the
    observed volumes and the simulated medians.
    """

    node_ids: tuple
    observed_in: np.ndarray
    observed_out: np.ndarray
    in_median: np.ndarray
    in_min: np.ndarray
    in_max: np.ndarray
    in_q025: np.ndarray
    in_q975: np.ndarray
    out_median: np.ndarray
    out_min: np.ndarray
    out_max: np.ndarray
    out_q025: np.ndarray
    out_q975: np.ndarray
    in_correlation: float
    out_correlation: float
    n_networks: int
    sum_ess: float
    degenerate: bool
    warnings: list

    @property
    def in_outside(self):
        return (self.observed_in < self.in_q025) | (self.observed_in > self.in_q975)

    @property
    def out_outside(self):
        return (self.observed_out < self.out_q025) | (self.observed_out > self.out_q975)

    def to_json_dict(self):
        return {
            "n_networks": self.n_networks,
            "in_correlation": self.in_correlation,
            "out_correlation": self.out_correlation,
            "nodes_outside_in_envelope": int(self.in_outside.sum()),
            "nodes_outside_out_envelope": int(self.out_outside.sum()),
            "n_nodes": len(self.node_ids),
            "sum_ess": self.sum_ess,
            "degenerate": self.degenerate,
            "warnings": list(self.warnings),
        }

    def write_json(self, path):
        write_json(path, self.to_json_dict())

    def write_volume_csv(self, path, direction):
        """Per-node envelope CSV for one direction ("in" or "out")."""
        if direction not in ("in", "out"):
            raise ValidationError("direction must be 'in' or 'out'")
        obs = getattr(self, "observed_" + direction)
        med, vmin, vmax, q025, q975 = (getattr(self, "%s_%s" % (direction, stat))
                                       for stat in _ENVELOPE)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["node_id", "observed", "median", "min", "max",
                             "q2.5", "q97.5"])
            for k, node in enumerate(self.node_ids):
                writer.writerow([node, int(obs[k]), repr(float(med[k])),
                                 int(vmin[k]), int(vmax[k]),
                                 repr(float(q025[k])), repr(float(q975[k]))])


# The per-node envelope statistics, in AdequacyReport's field order.
_ENVELOPE = ("median", "min", "max", "q025", "q975")


def _envelope(direction, sim):
    """AdequacyReport's envelope fields of one direction from its simulated volumes."""
    values = (np.median(sim, axis=0), sim.min(axis=0), sim.max(axis=0),
              np.quantile(sim, 0.025, axis=0), np.quantile(sim, 0.975, axis=0))
    return {"%s_%s" % (direction, stat): v for stat, v in zip(_ENVELOPE, values)}


def _pearson(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    a = a - a.mean()
    b = b - b.mean()
    denom = math.sqrt(float(a @ a) * float(b @ b))
    if denom == 0.0:
        return float("nan")
    return float(a @ b) / denom


def adequacy_check(model, theta, nodes, dyads, observed, config):
    """Simulate from the model and compare per-node volumes with ``observed``.

    Chains start at the observed network. Returns an :class:`AdequacyReport`
    with per-node envelopes, outside-envelope flags, and the two
    observed-versus-simulated-median correlations.
    """
    run = _chain(*_resolve(model, theta, nodes, dyads, observed), config)
    n = observed.n_nodes
    sim_in = run.in_volumes.astype(np.float64)
    sim_out = run.out_volumes.astype(np.float64)

    degenerate = bool(sim_in.std(axis=0).max() == 0 and sim_out.std(axis=0).max() == 0)
    warnings = ["degenerate chain: all simulated volumes identical"] if degenerate else []

    node_ids = observed.node_ids if observed.node_ids is not None else tuple(range(n))
    envelopes = {**_envelope("in", sim_in), **_envelope("out", sim_out)}
    return AdequacyReport(
        node_ids=tuple(node_ids),
        observed_in=observed.in_volumes().astype(np.float64),
        observed_out=observed.out_volumes().astype(np.float64),
        **envelopes,
        in_correlation=_pearson(observed.in_volumes(), envelopes["in_median"]),
        out_correlation=_pearson(observed.out_volumes(), envelopes["out_median"]),
        n_networks=len(run.sum_series),
        sum_ess=run.sum_ess,
        degenerate=degenerate,
        warnings=warnings + run.warnings,
    )


# -- expected totals and knockouts --------------------------------------------

def expected_total_flow(model, theta, nodes, dyads, config, init):
    """Monte-Carlo mean of total flow under the model, with its standard error
    over the effective sample size (:func:`_mean_and_se`). Chains start at ``init``."""
    return _mean_and_se(_chain(*_resolve(model, theta, nodes, dyads, init), config))


def _mean_and_se(run):
    """(mean, sd(ddof=1) / sqrt(sum_ess)) of ``run``'s Sum series; NaN SE below 2."""
    sums = run.sum_series
    se = sums.std(ddof=1) / math.sqrt(run.sum_ess) if len(sums) > 1 else math.nan
    return float(sums.mean()), float(se)


@dataclass
class KnockoutReport:
    """Expected totals with selected coefficients zeroed versus as fitted.

    Both scenarios run with the same chain configuration and seed, so
    knocking out an empty label set reproduces the baseline exactly.
    ``warnings`` holds both runs' chain warnings, prefixed by their scenario.
    """

    zeroed_labels: tuple
    baseline_mean: float
    baseline_se: float
    baseline_ess: float
    counterfactual_mean: float
    counterfactual_se: float
    counterfactual_ess: float
    abs_diff: float
    pct_diff: float
    warnings: list

    def to_json_dict(self):
        return asdict(self)

    def write_json(self, path):
        write_json(path, self.to_json_dict())


def knockout_experiment(model, theta_fitted, nodes, dyads, zero_labels, config,
                        init):
    """Zero the coefficients named in ``zero_labels`` (one label, or an
    iterable of them) and compare expected total flow, with chains started
    at ``init``.

    The lagged-flow covariate (when present) stays at its observed values;
    this is a single-period counterfactual, not a re-simulated history.
    """
    theta_fitted = model.check_theta(theta_fitted)
    labels = {zero_labels} if isinstance(zero_labels, str) else set(zero_labels)
    known = set(model.labels)
    unknown = labels - known
    if unknown:
        raise ValidationError("unknown term labels for knockout: %s"
                              % ", ".join(sorted(unknown)))
    zeroed = np.zeros_like(theta_fitted)  # the fitted values of the zeroed terms
    for lab in labels:
        pos = model.index_of(lab)
        zeroed[pos] = theta_fitted[pos]
    theta_cf = theta_fitted - zeroed

    cs = _change_stats(model, init, nodes, dyads)
    rate = cs.linear_rate_matrix(theta_fitted)
    base = _chain(*_inputs(cs, theta_fitted, rate, init), config)
    # the counterfactual rate lacks only the zeroed linear terms' share, and
    # equals the baseline's when no linear term is zeroed
    rate -= cs.linear_rate_matrix(zeroed)
    cf = _chain(*_inputs(cs, theta_cf, rate, init), config)
    base_mean, base_se = _mean_and_se(base)
    cf_mean, cf_se = _mean_and_se(cf)
    diff = cf_mean - base_mean
    pct = 100.0 * diff / base_mean if base_mean != 0 else float("nan")
    return KnockoutReport(
        zeroed_labels=tuple(sorted(labels)),
        baseline_mean=base_mean,
        baseline_se=base_se,
        baseline_ess=base.sum_ess,
        counterfactual_mean=cf_mean,
        counterfactual_se=cf_se,
        counterfactual_ess=cf.sum_ess,
        abs_diff=diff,
        pct_diff=pct,
        warnings=["%s: %s" % (scenario, message)
                  for scenario, run in (("baseline", base), ("counterfactual", cf))
                  for message in run.warnings],
    )
