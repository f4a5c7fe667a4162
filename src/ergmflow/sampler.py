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
one (Besag's coding sets). Every term's dlp piece is affine in those six
numbers, so a block costs a fixed number of numpy calls whatever the terms:
one gather, one matmul for every piece, and one put. Chain lengths stay
counted in proposals; a block is cut short where a sample is recorded. The
random draws are made per chunk of about ``_RNG_BLOCK`` proposals, so the
chain's temporaries do not grow with the network.

Every simulation is resolved once, by :func:`_groups`, into the Poisson means
and the (theta_k, kind) dependence terms of each theta, and runs through
:func:`_chain` as one or more row groups: one for a simulation, two for a
knockout's baseline and counterfactual. Each group's ``ChainConfig.n_chains``
chains run side by side in one state array, one row per chain, from one
random stream: every row follows the same sweep schedule, which reads no
state, so each is still an exact Metropolis-Hastings chain, and each block of
every row is updated in one numpy pass. The groups also share the
exponentials, and a later group's proposals are the first group's thinned and
superposed to its own means (common random numbers), so the knockout's
difference is paired.

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
from .errors import ValidationError, is_integer
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
# The largest total Poisson mean: the counts and volumes of a chain then stay
# far below 2^53, where the acceptance's float64 arithmetic is exact.
_POISSON_MAX = 2.0 ** 52


@dataclass(frozen=True)
class ChainConfig:
    """Chain controls: lengths counted in proposals, and the chain count.

    ``burn_in`` and ``thin`` default to 10 and 2 proposals per dyad, which
    are exactly 10 and 2 sweeps over every dyad. Without dependence terms
    every proposal is an exact independent draw of its dyad, so a dyad is
    stationary once it has been proposed. A run warns when either is
    shorter than one sweep, and when the effective sample size of its Sum
    statistic is below half its samples; raise both then. Without dependence
    terms and with ``thin`` of at least 2 sweeps, every sample is an
    independent exact draw, and the effective sample size is their number.

    The ``n_networks`` samples are split as evenly as possible over
    ``n_chains`` chains (the config key ``chain.n_chains``), at most one
    chain per sample. The chains run side by side in one process, all from
    one random stream at ``seed``, so results depend on ``n_chains``. More
    chains buy diagnostics, not cores: they never run in parallel. A
    knockout runs ``n_chains`` chains per scenario in the same pass, and
    couples its counterfactual through a second stream spawned from
    ``seed``, so its baseline is the chain that a simulation at the same
    config runs.
    """

    n_networks: int = 100
    burn_in: int | None = None
    thin: int | None = None
    seed: int = 0
    n_chains: int = 1

    def __post_init__(self):
        for name in ("n_networks", "n_chains", "burn_in", "thin"):
            value = getattr(self, name)
            if name in ("burn_in", "thin") and value is None:
                continue
            if not is_integer(value) or value < 1:
                raise ValidationError("%s must be an integer >= 1, got %r" % (name, value))
        if not (isinstance(self.seed, np.random.SeedSequence)
                or is_integer(self.seed) and self.seed >= 0):
            raise ValidationError("seed must be an integer >= 0 or a SeedSequence, "
                                  "got %r" % (self.seed,))

    def resolved(self, n_dyads):
        burn = self.burn_in if self.burn_in is not None else 10 * n_dyads
        thin = self.thin if self.thin is not None else max(1, 2 * n_dyads)
        return int(burn), int(thin)


@dataclass
class ChainRun:
    """Per-sample summaries of a chain (or of merged chains) and its
    acceptance counts.

    ``in_volumes`` and ``out_volumes`` are (samples, n_nodes) int64 arrays,
    ``sum_series`` the total flow of each sample, ``warnings`` those of
    :func:`_chain`. ``networks`` holds the sampled :class:`FlowNetwork`
    states of :func:`mcmc_simulate` and is empty otherwise. The samples
    come from chains of ``chain_sizes`` consecutive samples each;
    ``independent`` is set when they are independent exact draws.
    ``sum_ess`` is then their number, and otherwise the sum of each chain's
    :func:`_ess` of ``sum_series``.
    """

    in_volumes: np.ndarray
    out_volumes: np.ndarray
    sum_series: np.ndarray
    n_proposals: int
    n_accepted: int
    sum_ess: float
    warnings: list
    networks: list
    chain_sizes: tuple
    independent: bool

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
    return _chain(_groups(model, [theta], nodes, dyads, init), init, config,
                  keep_networks=True)[0]


def _proposal_means(rate, node_ids):
    """exp(rate) off the diagonal, each checked to be a usable Poisson mean.

    A mean may be at most ``_POISSON_MAX`` divided by the number of dyads,
    so that the total flow and every volume the chain keeps stay integers
    that float64 holds exactly. The diagonal holds no dyad and is skipped.
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


def _groups(model, thetas, nodes, dyads, init):
    """One :func:`_chain` row group (Poisson means, [(theta_k, kind)] of the
    dependence terms) per theta in ``thetas``, for chains from ``init``. One
    :class:`ChangeStats` serves them all, and each later group's linear
    log-rate is the one before less that of the difference of their thetas,
    so only the covariates whose coefficients change are evaluated again."""
    thetas = [model.check_theta(theta) for theta in thetas]
    if init.n_nodes < 2:
        raise ValidationError("a chain needs a network of at least 2 nodes, got %d"
                              % init.n_nodes)
    cs = ChangeStats(model, init, nodes, dyads)
    rate = cs.linear_rate_matrix(thetas[0])
    groups = []
    for k, theta in enumerate(thetas):
        if k:
            rate -= cs.linear_rate_matrix(thetas[k - 1] - theta)
        groups.append((_proposal_means(rate, init.node_ids),
                       [(float(theta[pos]), kind) for pos, kind in cs.nonlin]))
    return groups


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


def _pieces(dependences):
    """(slope, const, theta) of the pieces (p, q) of :func:`dependence_pieces`
    of every term that is nonzero in some row group. ``dependences`` holds
    each group's [(theta_k, kind)] over the same terms in the same order. A
    piece's c = q - p is affine in s = (y_ij, out_i, in_j, y_ji, in_i, out_j),
    so it is read off at the origin and the six unit vectors: c = slope @ s +
    const. theta[g, k] is group g's coefficient of piece k's term.
    """
    theta = np.array([[th for th, _kind in dep] for dep in dependences],
                     dtype=np.float64).reshape(len(dependences), -1)
    s = np.vstack([np.zeros(6), np.eye(6)]).T
    maps, owner = [], []
    for k, (_th, kind) in enumerate(dependences[0]):
        if theta[:, k].any():
            for p, q in dependence_pieces(kind, *s):
                maps.append(np.broadcast_to(q - p, 7))
                owner.append(k)
    maps = np.reshape(np.array(maps, dtype=np.float64), (-1, 7))
    return (np.ascontiguousarray(maps[:, 1:] - maps[:, :1]), maps[:, :1],
            theta[:, np.array(owner, dtype=np.intp)])


def _run_blocks(state, n, pieces, src, dst, proposed, expo, cuts, record):
    """Propose value ``proposed[g, c, t]`` for dyad (src[t], dst[t]) of chain
    c of row group g, t in order, and accept it with probability
    min(1, exp(dlp)) as ``expo[c, t]`` >= -dlp, where dlp sums, over the
    :func:`_pieces` ``pieces``, theta[g, k] [min(v', c_k) - min(y_ij, c_k)].
    Every group shares the exponentials.

    ``state`` is the (groups, chains, n² + 2n) array of :func:`_dense_state`.
    Runs of n // 2 dyads from the start, cut after every position in
    ``cuts``, must be node-disjoint: each run is updated at once in every
    row, which is exact because a dyad's acceptance reads only y_ij, y_ji
    and the volumes of i and j of its own row. A run is one gather through
    an index that every row shares, one matmul for every piece's c and one
    put. ``record()`` is called after each cut. Returns the (groups, chains)
    numbers of rejected proposals.
    """
    slope, const, theta = pieces
    theta = theta[:, None, :, None]
    nn = n * n
    flat = state.reshape(-1)
    rows = np.arange(0, flat.size, state.shape[2]).reshape(state.shape[:2] + (1, 1))
    # y_ij, out_i and in_j, which an accepted change moves, then y_ji, in_i, out_j
    at = np.empty((6, len(src)), dtype=np.intp)
    np.add(src * n, dst, out=at[0])
    np.add(dst * n, src, out=at[3])
    for row, ends, offset in ((1, src, nn), (2, dst, nn + n), (4, src, nn + n), (5, dst, nn)):
        np.add(ends, offset, out=at[row])
    stops = np.union1d(np.append(np.arange(n // 2, len(src), n // 2), len(src)), cuts)
    cuts = set(cuts.tolist())
    proposed = proposed[:, :, None]  # (groups, chains, 1, proposals)
    neg_e = np.negative(expo)[:, None]
    accepted = np.ones(proposed.shape, dtype=bool)
    start = 0
    for stop in stops.tolist():
        s = state.take(at[:, start:stop], axis=2)  # (groups, chains, 6, run)
        vp = proposed[..., start:stop]
        change = vp - s[:, :, :1]
        if len(slope):
            c = np.matmul(slope, s)  # min(p + x, q) is p + min(x, q - p)
            c += const
            d = np.minimum(vp, c)
            d -= np.minimum(s[:, :, :1], c)
            d *= theta
            change *= np.greater_equal(np.add.reduce(d, axis=2, keepdims=True),
                                       neg_e[..., start:stop], out=accepted[..., start:stop])
        flat.put(rows + at[:3, start:stop], s[:, :, :3] + change)
        if stop in cuts:
            record()
        start = stop
    return accepted.shape[-1] - np.count_nonzero(accepted, axis=(2, 3))


def _dense_state(network, n_rows):
    """The state of ``n_rows`` chains started at ``network``: per chain, one
    int64 row holding y row-major, then the out- and in-volumes, so that one
    gather reads all a block's acceptance needs."""
    n = network.n_nodes
    nn = n * n
    state = np.zeros((n_rows, nn + 2 * n), dtype=np.int64)
    src, dst, val = network.edge_arrays()
    state[0, src * n + dst] = val
    state[0, nn:nn + n] = network.out_volumes()
    state[0, nn + n:] = network.in_volumes()
    state[1:] = state[0]
    return state


def _draws(groups, src, dst, size, rng, coupling):
    """A chunk's proposals, (groups, chains, chunk), and exponentials,
    (chains, chunk). Group 0's proposals and the exponentials come from
    ``rng`` as a lone chain draws them. Group g's proposal is group 0's
    v ~ Poisson(lam) thinned to Binomial(v, lam_g / lam) where lam_g < lam,
    plus a Poisson(lam_g - lam) draw where lam_g > lam, both from
    ``coupling``: a Poisson(lam_g) draw that moves with v (Lewis & Shedler
    1979)."""
    lam = groups[0][0][src, dst]
    proposed = [rng.poisson(lam, size)]
    expo = rng.standard_exponential(size)
    for lam_g, _dependence in groups[1:]:
        lam_g = lam_g[src, dst]
        v = proposed[0].copy()
        fall = lam_g < lam
        if fall.any():
            v[:, fall] = coupling.binomial(v[:, fall], lam_g[fall] / lam[fall])
        if (lam_g > lam).any():
            v += coupling.poisson(np.maximum(lam_g - lam, 0.0), size)
        proposed.append(v)
    return np.stack(proposed) if len(groups) > 1 else proposed[0][None], expo


def _coupling_stream(seed):
    """The first child of the SeedSequence of ``seed``, which is left as it was."""
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return np.random.default_rng(np.random.SeedSequence(
        seq.entropy, spawn_key=seq.spawn_key + (0,), pool_size=seq.pool_size))


def _sum_ess(series, sizes, independent):
    """Sum over the chains, which hold ``sizes`` consecutive values of
    ``series`` each, of each one's :func:`_ess`; the length of ``series``
    when its values are ``independent`` exact draws."""
    if independent:
        return float(len(series))
    return sum(map(_ess, np.split(series, np.cumsum(sizes)[:-1])))


def _chain(groups, init, config, keep_networks=False):
    """Run the ``config.n_chains`` chains of each row group in ``groups``, a
    list of (lam, dependence) pairs as :func:`_groups` builds them, and
    return one :class:`ChainRun` per group, its chains merged in chain
    order, holding the network snapshots only when ``keep_networks`` is set.

    Every chain of every group starts at ``init`` in one state array and
    follows one sweep schedule. Group 0 draws its proposals and the
    exponentials from one random stream at ``config.seed``, each chunk as
    one (chains, chunk) array, so it is the same chain whatever the groups;
    every other group shares the exponentials and couples its proposals to
    group 0's through a stream spawned from ``config.seed`` (:func:`_draws`).
    All chains record ceil(n_networks / chains) samples at the same steps,
    and chain k keeps its first q + (k < r) of them, q, r = divmod(n_networks,
    chains); at most ``n_networks`` chains run. A group without dependence
    accepts every proposal, so with a ``thin`` of 2 sweeps, which holds a
    whole sweep of fresh draws, its samples are independent exact draws. A
    group warns when ``sum_ess`` is below half the samples, and when
    ``burn_in``, or ``thin`` with 2 samples a chain, is below a sweep; a
    sweep's dyads are distinct, so shares are exact.
    """
    n = init.n_nodes
    nn = n * n
    n_dyads = n * (n - 1)
    burn_in, thin = config.resolved(n_dyads)
    n_chains = min(config.n_chains, config.n_networks)
    q, r = divmod(config.n_networks, n_chains)
    keep = [q + (k < r) for k in range(n_chains)]  # samples each chain keeps
    m = keep[0]  # samples each chain records
    n_groups = len(groups)
    pieces = _pieces([dependence for _lam, dependence in groups])
    rng = np.random.default_rng(config.seed)
    coupling = _coupling_stream(config.seed) if n_groups > 1 else None

    state = _dense_state(init, n_groups * n_chains).reshape(n_groups, n_chains, -1)

    networks = [[[] for _ in range(n_chains)] for _ in range(n_groups)]
    volumes = np.empty((m, n_groups, n_chains, 2 * n), dtype=np.int64)  # out-, in-volumes
    k = 0

    def record():
        nonlocal k
        if keep_networks:
            for g, c in np.ndindex(n_groups, n_chains):
                if k < keep[c]:
                    networks[g][c].append(FlowNetwork.from_dense(
                        state[g, c, :nn].reshape(n, n), node_ids=init.node_ids))
        volumes[k] = state[:, :, nn:]
        k += 1

    total_steps = burn_in + thin * m
    record_at = np.arange(burn_in + thin, total_steps + 1, thin)
    n_rejected = 0
    step = 0
    for src, dst in _schedule(n, total_steps, rng, n_chains):
        proposed, expo = _draws(groups, src, dst, (n_chains, len(src)), rng, coupling)
        lo, hi = np.searchsorted(record_at, (step, step + len(src)), side="right")
        n_rejected += _run_blocks(state, n, pieces, src, dst, proposed, expo,
                                  record_at[lo:hi] - step, record)
        step += len(src)

    sweeps = ["%s of %d proposals covers %.3g sweeps: at least %.1f%% of dyads go "
              "unproposed within it" % (name, x, x / n_dyads, 100.0 - 100.0 * x / n_dyads)
              for name, x in (("burn_in", burn_in), ("thin", thin if m > 1 else n_dyads))
              if x < n_dyads]
    runs = []
    for g, (_lam, dependence) in enumerate(groups):
        kept = np.concatenate([volumes[:keep[c], g, c] for c in range(n_chains)])
        outs = kept[:, :n].copy()
        sums = outs.sum(axis=1).astype(np.float64)
        independent = not any(th for th, _kind in dependence) and thin >= 2 * n_dyads
        ess = _sum_ess(sums, keep, independent)
        warnings = list(sweeps)
        if ess < 0.5 * len(sums):
            warnings.append("Sum-statistic effective sample size %.3g of %d networks is "
                            "below half; raise burn_in and thin" % (ess, len(sums)))
        runs.append(ChainRun(kept[:, n:].copy(), outs, sums, n_chains * total_steps,
                             n_chains * total_steps - int(n_rejected[g].sum()), ess,
                             warnings, sum(networks[g], []), tuple(keep), independent))
    return runs


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
    run = _chain(_groups(model, [theta], nodes, dyads, observed), observed, config)[0]
    n = observed.n_nodes
    sim_in = run.in_volumes.astype(np.float64)
    sim_out = run.out_volumes.astype(np.float64)

    # one network has no spread to lose, so it never counts as degenerate
    degenerate = bool(len(sim_in) > 1 and sim_in.std(axis=0).max() == 0
                      and sim_out.std(axis=0).max() == 0)
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
    run = _chain(_groups(model, [theta], nodes, dyads, init), init, config)[0]
    return _mean_and_se(run.sum_series, run.sum_ess)


def _mean_and_se(series, ess):
    """(mean, sd(ddof=1) / sqrt(ess)) of ``series``; NaN SE below 2 values."""
    se = series.std(ddof=1) / math.sqrt(ess) if len(series) > 1 else math.nan
    return float(series.mean()), float(se)


@dataclass
class KnockoutReport:
    """Expected totals with selected coefficients zeroed versus as fitted.

    The baseline and the counterfactual run as two row groups of one chain
    pass, with the same chain configuration and seed. The baseline is the
    chain that :func:`expected_total_flow` runs at the fitted theta. The
    counterfactual shares its sweep schedule and exponentials, and its
    proposals are the baseline's thinned and superposed to its own rates,
    so knocking out an empty label set reproduces the baseline exactly.
    ``abs_diff_se`` is the paired standard error of ``abs_diff``: the sd of
    the per-sample difference series over that series' effective sample
    size. ``warnings`` holds both scenarios' chain warnings, prefixed by
    their scenario.
    """

    zeroed_labels: tuple
    baseline_mean: float
    baseline_se: float
    baseline_ess: float
    counterfactual_mean: float
    counterfactual_se: float
    counterfactual_ess: float
    abs_diff: float
    abs_diff_se: float
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

    base, cf = _chain(_groups(model, [theta_fitted, theta_fitted - zeroed], nodes, dyads,
                              init), init, config)
    base_mean, base_se = _mean_and_se(base.sum_series, base.sum_ess)
    cf_mean, cf_se = _mean_and_se(cf.sum_series, cf.sum_ess)
    paired = cf.sum_series - base.sum_series
    _, diff_se = _mean_and_se(paired, _sum_ess(paired, base.chain_sizes,
                                               base.independent and cf.independent))
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
        abs_diff_se=diff_se,
        pct_diff=pct,
        warnings=["%s: %s" % (scenario, message)
                  for scenario, run in (("baseline", base), ("counterfactual", cf))
                  for message in run.warnings],
    )
