"""Sparse directed valued networks of non-negative integer flows.

A :class:`FlowNetwork` stores only strictly positive dyad values, as three
read-only int64 arrays ``src``, ``dst`` and ``val`` sorted by (src, dst),
plus the per-node in- and out-volumes; an absent ordered pair means zero
flow. Every constructor (a mapping, :meth:`FlowNetwork.from_dense`,
:func:`build_network`) goes through one vectorized check that rejects
self-loops, out-of-range nodes, duplicate pairs and any value that is not a
positive integer (``from_dense`` does not round fractional flows). Nodes are
dense 0-based indices, optionally carrying a sidecar list of external ids
(e.g. FIPS codes). Instances are immutable after construction and safe to
share across threads; simulation code mutates only private dense copies.

A :class:`NodeTable` holds the node covariates; :data:`NODE_COLUMNS` names
its numeric columns once, for the table's checks and the node-file loader
and writer. A :class:`DyadCovariateSet` derives dyad covariates from them.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import ValidationError, is_integer

__all__ = [
    "FlowNetwork",
    "NodeTable",
    "DyadCovariateSet",
    "SummaryReport",
    "build_network",
    "summarize",
    "REGIONS",
    "RACIAL_CATEGORIES",
    "NODE_COLUMNS",
]

REGIONS = ("Northeast", "South", "West", "Midwest")
RACIAL_CATEGORIES = ("hispanic", "black", "asian", "white", "other")
_INT64_MAX = 2 ** 63 - 1


def _check_node(node, n_nodes):
    if not is_integer(node):
        raise ValidationError("node %r is not an integer index" % (node,))
    if not 0 <= node < n_nodes:
        raise ValidationError("node %r out of range for %d nodes" % (node, n_nodes))


class FlowNetwork:
    """Directed valued network without self-loops.

    Parameters
    ----------
    n_nodes : int
        Number of nodes; dyads are all ordered pairs (i, j) with i != j.
    edges : mapping
        (i, j) -> value. Values must be positive integers; zero-valued
        entries are not allowed here (drop them before construction, or use
        :func:`build_network`, which drops them for you).
    period_label : str
        Opaque label for the observation window, e.g. "2011-2015".
    node_ids : sequence of str, optional
        External id per node index. Length must equal ``n_nodes``.
    """

    __slots__ = ("n_nodes", "period_label", "node_ids",
                 "_src", "_dst", "_val", "_codes", "_in_vol", "_out_vol")

    def __init__(self, n_nodes, edges, period_label="", node_ids=None):
        edges = dict(edges)
        self._assign(n_nodes, [k[0] for k in edges], [k[1] for k in edges],
                     list(edges.values()), period_label, node_ids)

    def _assign(self, n_nodes, src, dst, val, period_label, node_ids):
        """Check (src, dst, val) entries and store them sorted by (src, dst)."""
        n_nodes = int(n_nodes)
        if n_nodes < 1:
            raise ValidationError("n_nodes must be >= 1, got %d" % n_nodes)
        if node_ids is not None:
            node_ids = tuple(str(x) for x in node_ids)
            if len(node_ids) != n_nodes:
                raise ValidationError(
                    "node_ids has %d entries for %d nodes" % (len(node_ids), n_nodes))
        src = np.asarray(src, dtype=np.int64).reshape(-1)
        dst = np.asarray(dst, dtype=np.int64).reshape(-1)
        val = np.asarray(val).reshape(-1)

        def first(mask):
            k = int(np.flatnonzero(mask)[0])
            return k, int(src[k]), int(dst[k])

        loop = src == dst
        if loop.any():
            _, i, j = first(loop)
            raise ValidationError("self-loop (%d, %d) is not allowed" % (i, j))
        off = (src < 0) | (src >= n_nodes) | (dst < 0) | (dst >= n_nodes)
        if off.any():
            _, i, j = first(off)
            raise ValidationError("dyad (%d, %d) out of range for %d nodes" % (i, j, n_nodes))
        if val.dtype.kind not in "biuf":
            raise ValidationError("flow values must be numbers, got %r" % (val[:1].tolist(),))
        with np.errstate(invalid="ignore"):
            good = np.isfinite(val) & (val >= 1) & (val == np.floor(val))
        if not good.all():
            k, i, j = first(~good)
            raise ValidationError("flow value for (%d, %d) must be a positive integer, got %r"
                                  % (i, j, val[k].item()))
        # the store is int64, where a count of 2^63 or more would wrap
        if val.dtype.kind in "uf" and (big := val >= 2 ** 63).any():
            k, i, j = first(big)
            raise ValidationError("flow value for (%d, %d) is %r, beyond the int64 maximum %d"
                                  % (i, j, val[k].item(), _INT64_MAX))
        codes = src * n_nodes + dst
        order = np.argsort(codes, kind="stable")
        codes = codes[order]
        dup = np.flatnonzero(codes[1:] == codes[:-1])
        if len(dup):
            i, j = divmod(int(codes[dup[0]]), n_nodes)
            raise ValidationError("duplicate entry for ordered pair (%d, %d)" % (i, j))
        self.n_nodes = n_nodes
        self.period_label = str(period_label)
        self.node_ids = node_ids
        self._src = src[order]
        self._dst = dst[order]
        self._val = val[order].astype(np.int64)
        self._codes = codes  # src * n + dst, sorted
        self._in_vol = self._volumes(self._dst, "in")
        self._out_vol = self._volumes(self._src, "out")
        for arr in (self._src, self._dst, self._val, self._codes, self._in_vol, self._out_vol):
            arr.flags.writeable = False

    def _volumes(self, ends, side):
        """The sums of the stored values per node of ``ends``, exact in int64;
        a sum past the int64 maximum raises ValidationError naming the node."""
        val, vol = self._val, np.zeros(self.n_nodes, dtype=np.int64)
        if len(val) and int(val.max()) * len(val) > _INT64_MAX:  # a sum might overflow
            exact = np.zeros(self.n_nodes, dtype=object)
            np.add.at(exact, ends, val.astype(object))
            big = np.flatnonzero(exact > _INT64_MAX)
            if len(big):
                k = int(big[0])
                node = k if self.node_ids is None else repr(self.node_ids[k])
                raise ValidationError("%s-volume of node %s is %d, beyond the int64 maximum %d"
                                      % (side, node, exact[k], _INT64_MAX))
        np.add.at(vol, ends, val)
        return vol

    # -- constructors ------------------------------------------------------

    @classmethod
    def _from_arrays(cls, n_nodes, src, dst, val, period_label="", node_ids=None):
        """Build from parallel (src, dst, val) arrays in any order."""
        net = cls.__new__(cls)
        net._assign(n_nodes, src, dst, val, period_label, node_ids)
        return net

    @classmethod
    def empty(cls, n_nodes, period_label="", node_ids=None):
        return cls._from_arrays(n_nodes, (), (), (), period_label, node_ids)

    @classmethod
    def from_dense(cls, matrix, period_label="", node_ids=None):
        """Build from a dense (n, n) array; the diagonal must be zero and
        every nonzero entry a positive integer."""
        m = np.asarray(matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError("dense flow matrix must be square")
        if np.any(np.diagonal(m)):
            raise ValidationError("dense flow matrix has nonzero diagonal entries")
        ii, jj = np.nonzero(m)
        return cls._from_arrays(m.shape[0], ii, jj, m[ii, jj], period_label, node_ids)

    # -- basic queries -----------------------------------------------------

    @property
    def n_edges(self):
        return len(self._val)

    @property
    def n_dyads(self):
        return self.n_nodes * (self.n_nodes - 1)

    @property
    def total_flow(self):
        return int(self._val.sum())

    @property
    def density(self):
        return self.n_edges / self.n_dyads if self.n_dyads else 0.0

    @property
    def max_value(self):
        return int(self._val.max()) if self.n_edges else 0

    def value(self, i, j):
        """Flow on the ordered dyad (i, j); absent entries are 0."""
        _check_node(i, self.n_nodes)
        _check_node(j, self.n_nodes)
        return int(self.values_at(int(i), int(j)))

    def values_at(self, ii, jj):
        """Flows on the ordered dyads (ii, jj), index arrays that broadcast
        together, as int64; absent pairs are 0. Indices are not checked."""
        codes = np.asarray(ii, dtype=np.int64) * self.n_nodes + np.asarray(jj, dtype=np.int64)
        if not self.n_edges:
            return np.zeros(codes.shape, dtype=np.int64)
        k = np.minimum(np.searchsorted(self._codes, codes), self.n_edges - 1)
        return np.where(self._codes[k] == codes, self._val[k], 0)

    def in_volume(self, node):
        _check_node(node, self.n_nodes)
        return int(self._in_vol[node])

    def out_volume(self, node):
        _check_node(node, self.n_nodes)
        return int(self._out_vol[node])

    def in_volumes(self):
        """Per-node total inflow as a read-only int64 array."""
        return self._in_vol

    def out_volumes(self):
        return self._out_vol

    def edge_arrays(self):
        """(src, dst, val) read-only arrays sorted by (src, dst)."""
        return self._src, self._dst, self._val

    def items(self):
        """((i, j), value) pairs in (i, j) order."""
        return zip(zip(self._src.tolist(), self._dst.tolist()), self._val.tolist())

    def dense_matrix(self, dtype=np.int64):
        """Dense (n, n) value matrix. Intended for small networks and for
        brute-force cross-checks; memory is O(n^2)."""
        m = np.zeros((self.n_nodes, self.n_nodes), dtype=dtype)
        m[self._src, self._dst] = self._val
        return m

    def to_edge_records(self):
        """Edge list of (origin, destination, count) using external ids when
        available, else integer indices."""
        ids = self.node_ids
        if ids is None:
            return [(i, j, v) for (i, j), v in self.items()]
        return [(ids[i], ids[j], v) for (i, j), v in self.items()]

    def copy(self):
        return FlowNetwork._from_arrays(self.n_nodes, self._src, self._dst, self._val,
                                        self.period_label, self.node_ids)

    def __eq__(self, other):
        if not isinstance(other, FlowNetwork):
            return NotImplemented
        return (self.n_nodes == other.n_nodes and np.array_equal(self._src, other._src)
                and np.array_equal(self._dst, other._dst)
                and np.array_equal(self._val, other._val))

    def __hash__(self):
        return hash((self.n_nodes, self._src.tobytes(), self._dst.tobytes(),
                     self._val.tobytes()))

    def __repr__(self):
        return "FlowNetwork(n_nodes=%d, n_edges=%d, total_flow=%d%s)" % (
            self.n_nodes, self.n_edges, self.total_flow,
            ", period=%r" % self.period_label if self.period_label else "")


def build_network(records, n_nodes=None, node_ids=None, period_label=""):
    """Assemble a :class:`FlowNetwork` from (origin, destination, count) records.

    Zero-count records are dropped. Duplicate ordered pairs, self-loops,
    negative or fractional counts, and unresolvable ids are rejected.

    Parameters
    ----------
    records : iterable of (origin, destination, count)
        Origins/destinations are either integer node indices (when
        ``node_ids`` is None) or external ids resolved through ``node_ids``.
    n_nodes : int, optional
        Node count when ids are integer indices; inferred from the largest
        index when omitted.
    node_ids : sequence of str, optional
        External id per node index; defines both the id map and ``n_nodes``.
    """
    records = list(records)
    origins = [r[0] for r in records]
    dests = [r[1] for r in records]
    if node_ids is not None:
        node_ids = [str(x) for x in node_ids]
        index = {x: k for k, x in enumerate(node_ids)}
        if len(index) != len(node_ids):
            raise ValidationError("node_ids contains duplicates")
        if n_nodes is not None and int(n_nodes) != len(node_ids):
            raise ValidationError("n_nodes disagrees with len(node_ids)")
        n_nodes = len(node_ids)
        try:
            src = [index[str(x)] for x in origins]
            dst = [index[str(x)] for x in dests]
        except KeyError as exc:
            raise ValidationError("unknown node id %r" % (exc.args[0],)) from None
    else:
        src = [int(x) for x in origins]
        dst = [int(x) for x in dests]
        if n_nodes is None:
            n_nodes = max(src + dst, default=0) + 1
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    counts = np.asarray([r[2] for r in records])
    if counts.dtype.kind in "biuf" and np.any(counts < 0):
        k = int(np.flatnonzero(counts < 0)[0])
        raise ValidationError("negative count %r for record (%r, %r)"
                              % (counts[k].item(), origins[k], dests[k]))
    keep = (counts != 0) | (src == dst)  # a self-loop is rejected even at count 0
    return FlowNetwork._from_arrays(n_nodes, src[keep], dst[keep], counts[keep],
                                    period_label, node_ids)


@dataclass(frozen=True)
class SummaryReport:
    """Descriptive statistics of one flow network.

    ``mean_degree`` is the Freeman total degree 2E/n; ``mean_flow_per_node``
    sums mean in- and out-migrants, i.e. 2 * total / n.
    """

    vertices: int
    edges: int
    density: float
    mean_degree: float
    total_flow: int
    mean_flow_per_node: float
    mean_flow_per_edge: float
    period_label: str

    def to_dict(self):
        return asdict(self)


def summarize(network):
    """Network-level descriptive statistics (vertices, edges, density,
    mean total degree, total flow, per-node and per-edge means)."""
    n = network.n_nodes
    e = network.n_edges
    total = network.total_flow
    return SummaryReport(
        vertices=n,
        edges=e,
        density=network.density,
        mean_degree=2.0 * e / n,
        total_flow=total,
        mean_flow_per_node=2.0 * total / n,
        mean_flow_per_edge=total / e if e else 0.0,
        period_label=network.period_label,
    )


# -- covariate tables --------------------------------------------------------

# The numeric node columns in node-file order: (field, node-file column, dtype,
# allowed range). ``racial_shares`` spans one pct_<category> column per
# racial category, which a node file gives in percent and the table holds as
# shares summing to 1. Values are checked as float64, so the integer columns
# stop at 2**63 - 1024, the largest float64 that an int64 holds.
NODE_COLUMNS = (
    ("population", "population", np.int64, (1, 2 ** 63 - 1024)),
    ("density", "density", np.float64, (0, np.inf)),
    ("psr", "psr", np.float64, (0, np.inf)),
    ("racial_shares", tuple("pct_" + c for c in RACIAL_CATEGORIES), np.float64, (0, np.inf)),
    ("renter_pct", "pct_renter", np.float64, (0, 100)),
    ("highered_pct", "pct_highered", np.float64, (0, 100)),
    ("unemployment_pct", "pct_unemployment", np.float64, (0, 100)),
    ("rural_pct", "pct_rural", np.float64, (0, 100)),
    ("democrat_poll_pct", "pct_democrat_2008", np.float64, (0, 100)),
    ("immigrant_inflow", "immigrant_inflow", np.int64, (0, 2 ** 63 - 1024)),
)


class NodeTable:
    """Per-node covariates, indexed like the network's nodes.

    Takes ``ids``, ``state``, ``region`` and one keyword per field of
    :data:`NODE_COLUMNS`, whose values must be finite, in range and, in an
    integer column, whole. Percent fields are stored on the 0..100 scale;
    model covariates derived from them (see :meth:`covariate`) are
    proportions in [0, 1] so that coefficient magnitudes stay comparable
    across terms. Racial shares are ordered as :data:`RACIAL_CATEGORIES`
    and must sum to 1 per node.
    """

    def __init__(self, ids, state, region, **columns):
        self.ids = tuple(str(x) for x in ids)
        n = len(self.ids)
        if len(set(self.ids)) != n:
            raise ValidationError("duplicate node ids in node table")
        if set(columns) != {f for f, *_ in NODE_COLUMNS}:
            raise TypeError("NodeTable takes one keyword per field of NODE_COLUMNS, "
                            "got %s" % ", ".join(sorted(columns)))
        self.state = np.asarray([str(s) for s in state], dtype=object)
        self.region = np.asarray([str(r) for r in region], dtype=object)
        for name in ("state", "region"):
            if len(getattr(self, name)) != n:
                raise ValidationError("column %s has %d rows for %d nodes"
                                      % (name, len(getattr(self, name)), n))
        bad_region = [r for r in set(self.region) if r not in REGIONS]
        if bad_region:
            raise ValidationError("unknown region values %r; expected %r"
                                  % (sorted(bad_region), list(REGIONS)))
        for field, column, dtype, (lo, hi) in NODE_COLUMNS:
            col = np.asarray(columns[field], dtype=np.float64)
            shape = (n,) if isinstance(column, str) else (n, len(column))
            if col.shape != shape:
                raise ValidationError("column %s has shape %r, expected %r"
                                      % (field, col.shape, shape))
            rows = col.reshape(n, -1)
            checks = [(np.isfinite(rows), "be finite")]
            if dtype is np.int64:
                checks.append((rows == np.floor(rows), "be a whole number"))
            checks.append(((rows >= lo) & (rows <= hi), "lie in [%.19g, %.19g]" % (lo, hi)))
            for good, problem in checks:
                if not np.all(good):
                    k = int(np.argmin(np.all(good, axis=1)))
                    raise ValidationError("%s must %s; first offending node %r"
                                          % (field, problem, self.ids[k]))
            setattr(self, field, np.asarray(columns[field], dtype=dtype))
        sums = self.racial_shares.sum(axis=1)
        off = np.flatnonzero(np.abs(sums - 1.0) > 1e-9)
        if len(off):
            raise ValidationError(
                "racial shares must sum to 1; offending nodes: %s"
                % ", ".join("%s (sum=%.6f)" % (self.ids[k], sums[k]) for k in off[:10]))

    @property
    def n_nodes(self):
        return len(self.ids)

    def covariate(self, name):
        """Resolve a model covariate by name (a key of ``_COVARIATE_RULES``)."""
        if name not in _COVARIATE_RULES:
            raise ValidationError("unknown node covariate %r; known names: %s"
                                  % (name, ", ".join(_COVARIATE_RULES)))
        return _COVARIATE_RULES[name](self)


def _log_density(nodes):
    bad = np.flatnonzero(nodes.density <= 0)[:10]
    if len(bad):
        raise ValidationError("log_density needs positive density; offending nodes: %s"
                              % ", ".join(nodes.ids[k] for k in bad))
    return np.log(nodes.density)


# Model covariates of a NodeTable by name. Percent fields become proportions;
# log_immigrant_inflow uses log(1 + x) because zero inflows occur; region
# names give 0/1 dummies.
_COVARIATE_RULES = {
    "log_population": lambda t: np.log(t.population.astype(np.float64)),
    "log_density": _log_density,
    "psr": lambda t: t.psr,
    "population": lambda t: t.population.astype(np.float64),
    "density": lambda t: t.density,
    **{"share_" + c: (lambda t, k=k: t.racial_shares[:, k])
       for k, c in enumerate(RACIAL_CATEGORIES)},
    "renter": lambda t: t.renter_pct / 100.0,
    "highered": lambda t: t.highered_pct / 100.0,
    "unemployment": lambda t: t.unemployment_pct / 100.0,
    "rural": lambda t: t.rural_pct / 100.0,
    "democrat": lambda t: t.democrat_poll_pct / 100.0,
    "log_immigrant_inflow": lambda t: np.log1p(t.immigrant_inflow.astype(np.float64)),
    "immigrant_inflow": lambda t: t.immigrant_inflow.astype(np.float64),
    **{r.lower(): (lambda t, r=r: (t.region == r).astype(np.float64)) for r in REGIONS},
}


_SYMMETRIC_DYAD = ("political_dissim", "rural_dissim", "racial_dissim",
                   "same_state", "log_distance")
_ANTISYMMETRIC_DYAD = ("unemp_diff",)


class DyadCovariateSet:
    """Named covariates of ordered pairs, evaluated on the dyads asked for.

    Entry (i, j) describes the dyad from origin i to destination j; the
    diagonal holds no dyad. The constructor stores (n, n) matrices and
    validates recognized names: the three dissimilarity scores must be
    symmetric and lie in [0, 1], ``unemp_diff`` must be antisymmetric,
    ``same_state`` binary, ``lagged_log_flow`` non-negative.
    """

    def __init__(self, n_nodes, matrices):
        self.n_nodes = int(n_nodes)
        self._covariates = {}  # name -> (rule, data), evaluated by values_at
        for name, m in dict(matrices).items():
            m = np.array(m, dtype=np.float64)  # a copy
            if m.shape != (self.n_nodes, self.n_nodes):
                raise ValidationError("matrix %r has shape %r, expected (%d, %d)"
                                      % (name, m.shape, self.n_nodes, self.n_nodes))
            if not np.all(np.isfinite(m)):
                raise ValidationError("matrix %r contains non-finite entries" % name)
            np.fill_diagonal(m, 0.0)
            if name in _SYMMETRIC_DYAD and not np.array_equal(m, m.T):
                raise ValidationError("matrix %r must be symmetric" % name)
            if name in _ANTISYMMETRIC_DYAD and not np.array_equal(m, -m.T):
                raise ValidationError("matrix %r must be antisymmetric" % name)
            if name.endswith("_dissim") and (m.min() < 0 or m.max() > 1):
                raise ValidationError("matrix %r must lie in [0, 1]" % name)
            if name == "same_state" and not np.all(np.isin(m, (0.0, 1.0))):
                raise ValidationError("same_state must be 0/1")
            if name == "lagged_log_flow" and m.min() < 0:
                raise ValidationError("lagged_log_flow must be non-negative")
            m.flags.writeable = False
            self._covariates[name] = ("matrix", m)

    @classmethod
    def _of_nodes(cls, nodes, matrices, lagged=None):
        """The set of ``matrices`` plus the covariates defined on the validated
        columns of a :class:`NodeTable` and on a lagged network, as rules."""
        dyads = cls(nodes.n_nodes, matrices)
        dyads._covariates.update({
            "political_dissim": ("abs_diff", nodes.covariate("democrat")),
            "rural_dissim": ("abs_diff", nodes.covariate("rural")),
            "racial_dissim": ("half_l1", nodes.racial_shares),
            "same_state": ("same", np.unique(nodes.state, return_inverse=True)[1]),
            "unemp_diff": ("diff", nodes.covariate("unemployment")),
        })
        if lagged is not None:
            dyads._covariates["lagged_log_flow"] = ("log1p_flow", lagged)
        return dyads

    @property
    def names(self):
        return tuple(sorted(self._covariates))

    def has(self, name):
        return name in self._covariates

    def values_at(self, name, ii, jj):
        """Covariate ``name`` on the ordered dyads (ii, jj), index arrays that
        broadcast together; defined off the diagonal only."""
        if name not in self._covariates:
            raise ValidationError(
                "unknown dyad covariate %r; available: %s"
                % (name, ", ".join(self.names) or "(none)"))
        rule, data = self._covariates[name]
        if rule == "matrix":
            return data[ii, jj]
        if rule == "abs_diff":
            return np.abs(data[ii] - data[jj])
        if rule == "diff":
            return data[jj] - data[ii]
        if rule == "half_l1":  # summed a column at a time: no (..., c) temporary
            a, b = data[ii], data[jj]
            total = np.abs(a[..., 0] - b[..., 0])
            for c in range(1, data.shape[1]):
                total += np.abs(a[..., c] - b[..., c])
            return 0.5 * total
        if rule == "same":
            return (data[ii] == data[jj]).astype(np.float64)
        return np.log1p(data.values_at(ii, jj).astype(np.float64))  # log1p_flow

    def matrix(self, name):
        """Covariate ``name`` over every pair, with a zero diagonal."""
        m = self.values_at(name, *np.ogrid[:self.n_nodes, :self.n_nodes])
        np.fill_diagonal(m, 0.0)
        return m

    def value(self, name, i, j):
        _check_node(i, self.n_nodes)
        _check_node(j, self.n_nodes)
        v = self.values_at(name, i, j)
        return 0.0 if i == j else float(v)
