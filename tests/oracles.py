"""Independent oracles for cross-checking the library.

Everything here recomputes quantities from first principles with plain
loops or textbook algorithms, deliberately sharing no code with the package
paths under test.
"""

import csv
import math

import numpy as np

from ergmflow.errors import ValidationError
from ergmflow.network import NodeTable


# -- Poisson intervals -----------------------------------------------------------

def scipy_log_poisson_interval(a, lo, hi):
    """log P(lo <= X <= hi) for X ~ Poisson(e^a), elementwise, from
    scipy.special: each endpoint's regularized incomplete gamma tail is taken
    on its own side of the mean, and where the probability underflows the pmf
    series is summed from the endpoint nearer the mean, starting from
    k a - gammaln(k + 1) - e^a. -inf where lo > hi; ``hi`` may be inf."""
    from scipy.special import gammainc, gammaincc, gammaln
    out = []
    for a_, lo_, hi_ in zip(*(np.broadcast_arrays(a, lo, hi))):
        lam = math.exp(a_)
        if lo_ > hi_:
            out.append(-math.inf)
            continue
        # P(X < lo) and P(X > hi), or their complements on the far side
        if hi_ < lam:
            prob = gammaincc(hi_ + 1.0, lam) - (gammaincc(lo_, lam) if lo_ > 0 else 0.0)
        elif lo_ > lam:
            prob = gammainc(lo_, lam) - (gammainc(hi_ + 1.0, lam) if hi_ < math.inf else 0.0)
        else:
            prob = (1.0 - (gammaincc(lo_, lam) if lo_ > 0 else 0.0)
                    - (gammainc(hi_ + 1.0, lam) if hi_ < math.inf else 0.0))
        if prob >= 1e-280:
            out.append(math.log(prob))
            continue
        below = hi_ < lam
        start = hi_ if below else lo_
        total = term = 1.0
        k = 0
        while k < hi_ - lo_ and term > 1e-17 * total:
            k += 1
            term *= (start - k + 1) / lam if below else lam / (start + k)
            total += term
        out.append(start * a_ - float(gammaln(start + 1.0)) - lam + math.log(total))
    return np.array(out)


def interval_moments(lam, lo, hi):
    """Mean and variance of X ~ Poisson(lam) given lo <= X <= hi (lo <= hi,
    ``hi`` may be inf), from the pmf's ratio recurrence summed in long double
    outward from the truncated distribution's mode, over 40 sd + 200 values
    on each side."""
    big = np.longdouble(lam)
    k0 = min(max(math.floor(lam), int(lo)), hi)
    width = int(40 * math.sqrt(lam) + 200)
    up = np.arange(k0 + 1, min(hi, k0 + width) + 1, dtype=np.longdouble)
    down = np.arange(k0, max(int(lo), k0 - width), -1, dtype=np.longdouble)
    k = np.concatenate([[np.longdouble(k0)], up, down - 1])
    w = np.concatenate([[np.longdouble(1)], np.cumprod(big / up), np.cumprod(down / big)])
    mean = (k * w).sum() / w.sum()
    return float(mean), float(((k - mean) ** 2 * w).sum() / w.sum())


# -- brute-force statistics on dense matrices ---------------------------------

def brute_sum(dense):
    n = len(dense)
    return float(sum(dense[i][j] for i in range(n) for j in range(n) if i != j))


def brute_nonzero(dense):
    n = len(dense)
    return float(sum(1 for i in range(n) for j in range(n)
                     if i != j and dense[i][j] > 0))


def brute_mutual_min(dense):
    n = len(dense)
    return float(sum(min(dense[i][j], dense[j][i])
                     for i in range(n) for j in range(i + 1, n)))


def brute_waypoint(dense):
    n = len(dense)
    total = 0.0
    for i in range(n):
        out = sum(dense[i][j] for j in range(n) if j != i)
        inn = sum(dense[k][i] for k in range(n) if k != i)
        total += min(out, inn)
    return float(total)


def brute_term(kind, dense, payload=None):
    n = len(dense)
    if kind == "sum":
        return brute_sum(dense)
    if kind == "nonzero":
        return brute_nonzero(dense)
    if kind == "mutual_min":
        return brute_mutual_min(dense)
    if kind == "waypoint_flow":
        return brute_waypoint(dense)
    if kind == "node_out":
        return float(sum(dense[i][j] * payload[i]
                         for i in range(n) for j in range(n) if i != j))
    if kind == "node_in":
        return float(sum(dense[i][j] * payload[j]
                         for i in range(n) for j in range(n) if i != j))
    if kind in ("dyad", "lagged_log_flow"):
        return float(sum(dense[i][j] * payload[i][j]
                         for i in range(n) for j in range(n) if i != j))
    raise ValueError(kind)


def brute_stat_vector(term_kinds_payloads, dense):
    return np.array([brute_term(kind, dense, payload)
                     for kind, payload in term_kinds_payloads])


def brute_conditional_log_pmf(term_kinds_payloads, dense, theta, i, j, v,
                              tail_rel=1e-14):
    """Direct summation of w(u) = exp(theta . g(y | y_ij=u)) / u!.

    Recomputes every statistic from scratch at each candidate value; sums
    until the running tail is negligible.
    """
    dense = [list(row) for row in dense]
    logws = []
    u = 0
    best = -math.inf
    while True:
        dense[i][j] = u
        g = brute_stat_vector(term_kinds_payloads, dense)
        lw = float(np.dot(theta, g)) - math.lgamma(u + 1)
        logws.append(lw)
        best = max(best, lw)
        if u > v + 10 and u > 25 and lw - best < math.log(tail_rel):
            break
        u += 1
        if u > 5000:
            raise RuntimeError("brute conditional pmf did not converge")
    arr = np.array(logws)
    lse = best + math.log(np.exp(arr - best).sum())
    return float(arr[v] - lse)


# -- pseudo-likelihood by summation over a growing support grid ----------------

def _change_profile(kind, payload, dense, out_vol, in_vol, i, j, v):
    """g(y with y_ij = v) - g(y) for one term, on the value array v."""
    y = dense[i][j]
    if kind == "sum":
        return v - y
    if kind == "nonzero":
        return (v > 0).astype(np.float64) - float(y > 0)
    if kind == "mutual_min":
        return np.minimum(v, dense[j][i]) - min(y, dense[j][i])
    if kind == "waypoint_flow":
        # only node i's outflow and node j's inflow move with y_ij
        out_i = out_vol[i] - y + v
        in_j = in_vol[j] - y + v
        return (np.minimum(out_i, in_vol[i]) + np.minimum(out_vol[j], in_j)
                - min(out_vol[i], in_vol[i]) - min(out_vol[j], in_vol[j]))
    if kind == "node_out":
        return payload[i] * (v - y)
    if kind == "node_in":
        return payload[j] * (v - y)
    if kind in ("dyad", "lagged_log_flow"):
        return payload[i][j] * (v - y)
    raise ValueError(kind)


def grid_pseudo_loglik(term_kinds_payloads, dense, theta, pairs, weights,
                       ridge_lambda=0.0, tail_rel=1e-16):
    """Weighted penalized pseudo-log-likelihood with gradient and Hessian.

    Each dyad's conditional is summed directly over v = 0..V. V starts past
    every point where a term's change profile can bend (all lie at or below
    max(y_ji, in-volume of i, out-volume of j)) and doubles, with no
    ceiling, until the log-weights fall at the end and a geometric bound on
    the mass beyond V is below ``tail_rel`` of the total.
    """
    dense = np.asarray(dense, dtype=np.float64)
    out_vol = dense.sum(axis=1)
    in_vol = dense.sum(axis=0)
    theta = np.asarray(theta, dtype=np.float64)
    p = len(theta)
    value = 0.0
    grad = np.zeros(p)
    hess = np.zeros((p, p))
    log_fact = np.zeros(1)
    for (i, j), wt in zip(pairs, weights):
        y = int(dense[i][j])
        support = int(max(y, dense[j][i], in_vol[i], out_vol[j], 20)) + 1
        while True:
            v = np.arange(support + 1, dtype=np.float64)
            g = np.column_stack([_change_profile(kind, payload, dense, out_vol,
                                                 in_vol, i, j, v)
                                 for kind, payload in term_kinds_payloads])
            if len(log_fact) <= support:
                log_fact = np.array([math.lgamma(u + 1.0) for u in range(2 * support + 1)])
            logw = g @ theta - log_fact[:support + 1]
            top = logw.max()
            lse = top + math.log(np.exp(logw - top).sum())
            step = logw[-1] - logw[-2]
            if step < 0 and (logw[-1] - lse + step - math.log(-math.expm1(step))
                             < math.log(tail_rel)):
                break
            support *= 2
        prob = np.exp(logw - lse)
        mean = prob @ g
        value += wt * (logw[y] - lse)
        grad += wt * (g[y] - mean)
        dev = g - mean  # two-pass covariance; no E[gg'] - mean mean' cancellation
        hess -= wt * ((dev * prob[:, None]).T @ dev)
    value -= ridge_lambda * float(theta @ theta)
    grad -= 2.0 * ridge_lambda * theta
    hess -= 2.0 * ridge_lambda * np.eye(p)
    return value, grad, hess


# -- iteratively reweighted least squares Poisson regression -------------------

def irls_poisson(design, y, tol=1e-12, max_iter=200):
    """Textbook IRLS for a log-link Poisson GLM. Returns coefficients."""
    design = np.asarray(design, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    beta = np.zeros(design.shape[1])
    for _ in range(max_iter):
        eta = design @ beta
        mu = np.exp(eta)
        z = eta + (y - mu) / mu
        new = np.linalg.solve(design.T @ (mu[:, None] * design),
                              design.T @ (mu * z))
        if np.abs(new - beta).max() < tol:
            return new
        beta = new
    return beta


# -- exact enumeration for a two-node model ------------------------------------

def exact_two_node_distribution(theta_sum, theta_mutual, grid=60, theta_nonzero=0.0):
    """Joint pmf of (y_01, y_10) by double summation over a large grid, for
    the sum, mutual_min and (optional) nonzero terms."""
    lw = np.empty((grid + 1, grid + 1))
    for a in range(grid + 1):
        for b in range(grid + 1):
            lw[a, b] = (theta_sum * (a + b) + theta_mutual * min(a, b)
                        + theta_nonzero * ((a > 0) + (b > 0))
                        - math.lgamma(a + 1) - math.lgamma(b + 1))
    w = np.exp(lw - lw.max())
    return w / w.sum()


def correlate_ess(series):
    """Geyer initial-positive-sequence ESS with the autocorrelation taken
    directly by ``np.correlate`` (quadratic in the length), capped at the
    length; a series shorter than 4 or without variance counts each value."""
    x = np.asarray(series, dtype=np.float64)
    m = len(x)
    if m < 4 or x.std() == 0:
        return float(m)
    x = x - x.mean()
    acf = np.correlate(x, x, mode="full")[m - 1:] / (x @ x)
    total = 0.0
    for t in range(0, m - 1, 2):
        pair = acf[t] + acf[t + 1]
        if pair <= 0:
            break
        total += pair
    return m / max(2.0 * total - 1.0, 1.0)


# -- dyad sampling over the n (n - 1) off-diagonal codes ------------------------

def neighbourhood(network, ii, jj):
    """Each dyad's s = (y_ij, out_i, in_j, y_ji, in_i, out_j) as six int64
    arrays, read one dyad and one node at a time."""
    rows = [(network.value(i, j), network.out_volume(i), network.in_volume(j),
             network.value(j, i), network.in_volume(i), network.out_volume(j))
            for i, j in zip(np.asarray(ii).tolist(), np.asarray(jj).tolist())]
    return tuple(np.array(col, dtype=np.int64) for col in zip(*rows))


def offdiag_codes(src, dst, n):
    """Index of each ordered dyad (src, dst) among the n (n - 1) pairs of
    distinct nodes, row-major with the diagonal removed."""
    return src * (n - 1) + dst - (dst > src)


def offdiag_dyads(codes, n):
    """The (origin, destination) index arrays of :func:`offdiag_codes`."""
    ii, rr = np.divmod(codes, n - 1)
    return ii.astype(np.intp), (rr + (rr >= ii)).astype(np.intp)


def offdiag_stratified_sample(network, n_total, seed):
    """(src, dst, weights, strata counts) of the tie/no-tie stratified sample,
    drawn over the off-diagonal codes with the zero stratum built by
    ``np.setdiff1d``."""
    n = network.n_nodes
    total = n * (n - 1)
    src, dst, _ = network.edge_arrays()
    nz = np.sort(offdiag_codes(src, dst, n))
    n1_total, n0_total = len(nz), total - len(nz)
    if n_total >= total:
        ii, jj = offdiag_dyads(np.arange(total, dtype=np.int64), n)
        return ii, jj, np.ones(total), (n1_total, n0_total, n1_total, n0_total)
    rng = np.random.default_rng(seed)
    heads = int(rng.binomial(n_total, 0.5))
    n1 = min(n1_total, heads + max(0, n_total - heads - n0_total))
    n0 = n_total - n1
    take1 = np.sort(rng.choice(nz, size=n1, replace=False)) if n1 else nz[:0]
    zero = np.setdiff1d(np.arange(total, dtype=np.int64), nz, assume_unique=True)
    take0 = np.sort(rng.choice(zero, size=n0, replace=False)) if n0 else nz[:0]
    weights = np.concatenate([np.full(n1, n1_total / n1 if n1 else 1.0),
                              np.full(n0, n0_total / n0 if n0 else 1.0)])
    ii, jj = offdiag_dyads(np.concatenate([take1, take0]), n)
    return ii, jj, weights, (n1_total, n0_total, n1, n0)


# -- the per-proposal Metropolis-Hastings loop -----------------------------------

def _dependence_changes(kind, v, vp, y_ji, out_i, in_i, out_j, in_j):
    """How each piece of a dependence term's statistic moves when y_ij goes
    from v to vp, from the term's definition; waypoint_flow has one piece per
    node whose minimum can move (i's outflow and j's inflow move with y_ij)."""
    if kind == "nonzero":
        return ((vp > 0) - (v > 0),)
    if kind == "mutual_min":
        return (min(vp, y_ji) - min(v, y_ji),)
    if kind == "waypoint_flow":
        return (min(out_i - v + vp, in_i) - min(out_i, in_i),
                min(out_j, in_j - v + vp) - min(out_j, in_j))
    raise ValueError(kind)


def scalar_chain(dense, dependence, src, dst, proposed, expo, record_at):
    """The chain's update as a plain loop, one proposal at a time.

    Proposal t sets y[src[t]][dst[t]] to proposed[t] unless
    expo[t] < -dlp, where dlp = sum of theta * (piece change) over the
    [(theta, kind)] ``dependence`` terms, accumulated term by term and piece
    by piece. After each 1-based step in ``record_at`` it records (total
    flow, in-volumes, out-volumes). Returns (dense, out-volumes, in-volumes,
    records, number rejected).
    """
    y = [list(row) for row in dense]
    n = len(y)
    out_vol = [sum(row) for row in y]
    in_vol = [sum(y[i][j] for i in range(n)) for j in range(n)]
    total = sum(out_vol)
    record_at = set(record_at)
    records = []
    n_rejected = 0
    for step, (i, j, vp, e) in enumerate(zip(src, dst, proposed, expo), 1):
        v = y[i][j]
        if vp != v:
            dlp = 0.0
            for th, kind in dependence:
                for change in _dependence_changes(kind, v, vp, y[j][i], out_vol[i],
                                                  in_vol[i], out_vol[j], in_vol[j]):
                    dlp += th * change
            if e < -dlp:  # accepted with probability min(1, exp(dlp))
                n_rejected += 1
            else:
                y[i][j] = vp
                out_vol[i] += vp - v
                in_vol[j] += vp - v
                total += vp - v
        if step in record_at:
            records.append((total, list(in_vol), list(out_vol)))
    return y, out_vol, in_vol, records, n_rejected


# -- row-at-a-time CSV loaders ---------------------------------------------------
#
# The loaders as they stood before ``ergmflow.ingest`` streamed blocks: every
# row is held as a dict, then validated in a Python loop. Rows are numbered
# by data-row ordinal + 1, blank lines skipped. They differ from the package
# on purpose in one way only: a NaN or infinite distance loads here.
# ``rowloop_load_nodes`` returns the package's own NodeTable, so the parity
# tests compare the loaders alone. The ``rowloop_write_*`` writers make one
# ``csv.writer`` call per row, as the package did before it wrote a block of
# rows per call.

def _rowloop_rows(path, required):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in required if c not in header]
        if missing:
            raise ValidationError("%s is missing columns: %s"
                                  % (path, ", ".join(missing)))
        rows = list(reader)
    return rows


def _rowloop_num(row, col, rownum, path):
    raw = row[col]
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise ValidationError("%s row %d: non-numeric %s value %r"
                              % (path, rownum, col, raw)) from None


def _rowloop_whole(row, col, rownum, path):
    raw = row[col]
    try:
        return int(raw)
    except (TypeError, ValueError):
        pass
    try:
        value = float(raw)
    except (TypeError, ValueError):
        value = math.nan
    if not value.is_integer():
        raise ValidationError("%s row %d: %s value %r is not a whole number"
                              % (path, rownum, col, raw))
    return int(value)


def rowloop_load_flows(path):
    rows = _rowloop_rows(path, ("origin", "destination", "count"))
    records = []
    seen = {}
    for k, row in enumerate(rows, start=2):
        count = _rowloop_whole(row, "count", k, path)
        if count < 0:
            raise ValidationError("%s row %d: negative count %d" % (path, k, count))
        key = (row["origin"], row["destination"])
        if key in seen:
            raise ValidationError("%s row %d: duplicate ordered pair %r "
                                  "(first at row %d)" % (path, k, key, seen[key]))
        seen[key] = k
        records.append((row["origin"], row["destination"], count))
    return records


ROWLOOP_NODE_COLUMNS = (
    "id", "state", "region", "population", "density", "psr", "pct_hispanic",
    "pct_black", "pct_asian", "pct_white", "pct_other", "pct_renter",
    "pct_highered", "pct_unemployment", "pct_rural", "pct_democrat_2008",
    "immigrant_inflow")

# (NodeTable field, its node-file columns, dtype) in file order
_ROWLOOP_NODE_FIELDS = (
    ("population", ("population",), np.int64),
    ("density", ("density",), np.float64),
    ("psr", ("psr",), np.float64),
    ("racial_shares", ROWLOOP_NODE_COLUMNS[6:11], np.float64),
    ("renter_pct", ("pct_renter",), np.float64),
    ("highered_pct", ("pct_highered",), np.float64),
    ("unemployment_pct", ("pct_unemployment",), np.float64),
    ("rural_pct", ("pct_rural",), np.float64),
    ("democrat_poll_pct", ("pct_democrat_2008",), np.float64),
    ("immigrant_inflow", ("immigrant_inflow",), np.int64),
)


def rowloop_load_nodes(path):
    rows = _rowloop_rows(path, ROWLOOP_NODE_COLUMNS)
    if not rows:
        raise ValidationError("%s contains no data rows" % path)
    ids, state, region = [], [], []
    population, density, psr = [], [], []
    shares = []
    renter, highered, unemp, rural, democrat, immig = [], [], [], [], [], []
    seen = {}
    for k, row in enumerate(rows, start=2):
        node_id = row["id"]
        if node_id in seen:
            raise ValidationError("%s row %d: duplicate node id %r (first at row %d)"
                                  % (path, k, node_id, seen[node_id]))
        seen[node_id] = k
        ids.append(node_id)
        state.append(row["state"])
        region.append(row["region"])
        population.append(_rowloop_whole(row, "population", k, path))
        density.append(_rowloop_num(row, "density", k, path))
        psr.append(_rowloop_num(row, "psr", k, path))
        pct = [_rowloop_num(row, "pct_" + cat, k, path)
               for cat in ("hispanic", "black", "asian", "white", "other")]
        if abs(sum(pct) - 100.0) > 1e-7 * 100.0:
            raise ValidationError(
                "%s row %d: racial percentages for node %r sum to %.6f, "
                "expected 100" % (path, k, node_id, sum(pct)))
        shares.append([p / 100.0 for p in pct])
        renter.append(_rowloop_num(row, "pct_renter", k, path))
        highered.append(_rowloop_num(row, "pct_highered", k, path))
        unemp.append(_rowloop_num(row, "pct_unemployment", k, path))
        rural.append(_rowloop_num(row, "pct_rural", k, path))
        democrat.append(_rowloop_num(row, "pct_democrat_2008", k, path))
        immig.append(_rowloop_whole(row, "immigrant_inflow", k, path))
    shares = np.asarray(shares)
    shares = shares / shares.sum(axis=1, keepdims=True)
    return NodeTable(ids=ids, state=state, region=region, population=population,
                     density=density, psr=psr, racial_shares=shares,
                     renter_pct=renter, highered_pct=highered,
                     unemployment_pct=unemp, rural_pct=rural,
                     democrat_poll_pct=democrat, immigrant_inflow=immig)


def rowloop_load_distances(path, node_ids):
    node_ids = [str(x) for x in node_ids]
    index = {x: k for k, x in enumerate(node_ids)}
    n = len(node_ids)
    km = np.full((n, n), np.nan)
    np.fill_diagonal(km, 0.0)
    rows = _rowloop_rows(path, ("id_a", "id_b", "km"))
    for k, row in enumerate(rows, start=2):
        a, b = row["id_a"], row["id_b"]
        if a not in index:
            raise ValidationError("%s row %d: unknown node id %r" % (path, k, a))
        if b not in index:
            raise ValidationError("%s row %d: unknown node id %r" % (path, k, b))
        i, j = index[a], index[b]
        if i == j:
            raise ValidationError("%s row %d: distance given for a node to itself (%r)"
                                  % (path, k, a))
        d = _rowloop_num(row, "km", k, path)
        if d <= 0:
            raise ValidationError("%s row %d: non-positive distance %r between "
                                  "distinct nodes" % (path, k, d))
        for x, yy in ((i, j), (j, i)):
            if not np.isnan(km[x, yy]) and km[x, yy] != d:
                raise ValidationError("%s row %d: conflicting distance for (%r, %r)"
                                      % (path, k, a, b))
            km[x, yy] = d
    return km


def rowloop_write_flows_csv(path, network):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["origin", "destination", "count"])
        for origin, destination, count in network.to_edge_records():
            writer.writerow([origin, destination, count])


def rowloop_write_nodes_csv(path, nodes):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ROWLOOP_NODE_COLUMNS)
        for k in range(nodes.n_nodes):
            row = [nodes.ids[k], nodes.state[k], nodes.region[k]]
            for field, cols, dtype in _ROWLOOP_NODE_FIELDS:
                value = getattr(nodes, field)[k]
                if dtype is np.int64:
                    row.append(int(value))
                elif len(cols) == 1:
                    row.append(repr(float(value)))
                else:
                    row.extend(repr(float(100.0 * s)) for s in value)
            writer.writerow(row)


def rowloop_write_distances_csv(path, km, node_ids):
    node_ids = [str(x) for x in node_ids]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id_a", "id_b", "km"])
        n = len(node_ids)
        for i in range(n):
            for j in range(i + 1, n):
                writer.writerow([node_ids[i], node_ids[j], repr(float(km[i, j]))])


# -- dense dyad covariates -------------------------------------------------------
#
# The covariates as whole (n, n) matrices, built the way the package built
# them before it evaluated them on the dyads asked for.

def dense_dyad_covariates(nodes, lagged=None):
    """The node-derived dyad covariates (and lagged_log_flow when ``lagged``
    is given) as dense matrices with a zero diagonal."""
    dem = nodes.democrat_poll_pct / 100.0
    rural = nodes.rural_pct / 100.0
    n = nodes.n_nodes
    racial = np.empty((n, n))
    shares = nodes.racial_shares
    block = max(1, (1 << 22) // max(1, n * shares.shape[1]))
    for start in range(0, n, block):
        stop = min(n, start + block)
        racial[start:stop] = 0.5 * np.abs(
            shares[start:stop, None, :] - shares[None, :, :]).sum(axis=2)
    unemp = nodes.unemployment_pct / 100.0
    mats = {
        "political_dissim": np.abs(dem[:, None] - dem[None, :]),
        "rural_dissim": np.abs(rural[:, None] - rural[None, :]),
        "racial_dissim": racial,
        "same_state": (nodes.state[:, None] == nodes.state[None, :]).astype(np.float64),
        "unemp_diff": unemp[None, :] - unemp[:, None],
    }
    if lagged is not None:
        mats["lagged_log_flow"] = np.log1p(lagged.dense_matrix(dtype=np.float64))
    for m in mats.values():
        np.fill_diagonal(m, 0.0)
    return mats


# -- finite differences ---------------------------------------------------------

def central_gradient(f, x, h=1e-5):
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for k in range(len(x)):
        e = np.zeros_like(x)
        e[k] = h
        g[k] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def central_hessian(grad_f, x, h=1e-5):
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    hess = np.zeros((n, n))
    for k in range(n):
        e = np.zeros_like(x)
        e[k] = h
        hess[:, k] = (grad_f(x + e) - grad_f(x - e)) / (2 * h)
    return 0.5 * (hess + hess.T)


def relative_error(got, want):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    return float(np.abs(got - want).max() / max(1.0, np.abs(want).max()))
