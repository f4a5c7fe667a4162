"""File loaders, covariate engineering, group-flow aggregation, and a
seed-deterministic synthetic data generator.

File formats (all CSV, UTF-8, locale-independent numerals):

* flows:     ``origin,destination,count``
* nodes:     ``id,state,region``, then the node-file columns of
             :data:`ergmflow.network.NODE_COLUMNS` in its order
* distances: ``id_a,id_b,km`` (symmetric; one direction is sufficient)

Loaders stream a file in blocks of a few thousand rows. Each block becomes
typed columns and is validated before the next is read, so a loader needs
one block of memory beyond what it returns. The distance loader parses a
block with ``np.loadtxt`` if it has no quote, NUL or blank line; the first
block that has one, fails to parse or has a bad row, and every block after
it, go through :mod:`csv`. The commands read flow files the same way, into
edge arrays; a file that numpy or the checks refuse goes whole through
:func:`load_flows` and :func:`~ergmflow.network.build_network`, for the same
network or message. A malformed file is rejected naming its first offending
row in file order. Rows are numbered from 2 for the first data
row (the header is row 1), and blank lines are skipped without being
counted, so in a file without blank lines the row number is the line
number.

Covariate scaling: dissimilarities and percent-derived covariates are
proportions in [0, 1]; logged covariates of counts use log(1 + x) because
zeros occur (lagged flows, immigrant inflows). Distances enter as log km.
"""

from __future__ import annotations

import csv
import itertools
import warnings
from dataclasses import dataclass
from operator import itemgetter
from types import SimpleNamespace

import numpy as np

from .errors import ValidationError
from .network import (NODE_COLUMNS, REGIONS, DyadCovariateSet, FlowNetwork,
                      NodeTable, build_network)
from .sampler import ChainConfig, mcmc_simulate
from .stats import ModelSpec

__all__ = [
    "racial_dissimilarity",
    "scalar_dissimilarity",
    "build_dyad_covariates",
    "load_flows",
    "load_nodes",
    "load_distances",
    "write_flows_csv",
    "write_nodes_csv",
    "write_distances_csv",
    "GroupFlowMatrix",
    "group_flow_matrix",
    "synthetic_generate",
]


# -- dissimilarity scores ------------------------------------------------------

def _as_composition(x):
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 1 or len(a) < 2:
        raise ValidationError("composition must be a 1-d vector of shares or counts")
    if not np.all(np.isfinite(a)) or np.any(a < 0):
        raise ValidationError("composition entries must be finite and non-negative")
    s = a.sum()
    if s <= 0:
        raise ValidationError("composition must have positive total")
    return a / s


def racial_dissimilarity(a, b):
    """Half the L1 distance between two composition vectors, in [0, 1].

    Raw counts are normalized to shares first. 0 means identical
    compositions; 1 means disjoint support.
    """
    pa = _as_composition(a)
    pb = _as_composition(b)
    if len(pa) != len(pb):
        raise ValidationError("compositions have different lengths")
    return 0.5 * float(np.abs(pa - pb).sum())


def scalar_dissimilarity(x_a, x_b):
    """Absolute difference of two percentages, rescaled to [0, 1]."""
    for x in (x_a, x_b):
        if not (0.0 <= x <= 100.0):
            raise ValidationError("percent input %r outside [0, 100]" % (x,))
    return abs(x_a - x_b) / 100.0


def build_dyad_covariates(nodes, distance, lagged=None):
    """Assemble the standard dyad covariates for a node table.

    ``distance`` is either a path to a distance CSV or a dense (n, n)
    kilometre matrix; every off-diagonal pair needs a positive distance.
    Stores log_distance as a matrix and evaluates the others on the dyads
    asked for: same_state, the three dissimilarity scores, unemp_diff
    (destination minus origin, proportion scale), and lagged_log_flow when
    a lagged network is supplied.
    """
    n = nodes.n_nodes
    if isinstance(distance, (str, bytes)) or hasattr(distance, "__fspath__"):
        km = load_distances(distance, nodes.ids)
    else:
        km = np.asarray(distance, dtype=np.float64)
        if km.shape != (n, n):
            raise ValidationError("distance matrix has shape %r, expected (%d, %d)"
                                  % (km.shape, n, n))
    off = ~np.eye(n, dtype=bool)
    for bad, problem in ((~np.isfinite(km), "missing"), (km <= 0, "non-positive")):
        pairs = np.argwhere(off & bad)
        if len(pairs):
            raise ValidationError("%s distance for %d pairs, e.g. %s" % (
                problem, len(pairs), ", ".join("(%s, %s)" % (nodes.ids[i], nodes.ids[j])
                                               for i, j in pairs[:10])))

    with np.errstate(divide="ignore", invalid="ignore"):
        log_distance = np.log(km)  # the diagonal holds no dyad
    del km, off  # a loaded matrix is freed before the set copies the log
    np.fill_diagonal(log_distance, 0.0)
    if lagged is not None and lagged.n_nodes != n:
        raise ValidationError("lagged network has %d nodes, table has %d"
                              % (lagged.n_nodes, n))
    return DyadCovariateSet._of_nodes(nodes, {"log_distance": log_distance}, lagged)


# -- loaders -------------------------------------------------------------------

# Data rows read, converted and validated at a time.
_BLOCK_ROWS = 8192


def _read_blocks(path, columns, fast=None):
    """Stream a CSV file as blocks of text columns.

    Yields ``(first_row, cells)``: ``cells[c]`` lists the block's values in
    ``columns[c]``, and ``first_row`` is the number messages give the
    block's first row. As in :class:`csv.DictReader`, blank lines are
    skipped and not counted, a repeated column name means its last
    occurrence, and a short row has None in the cells it lacks.

    ``fast(lines, picks)``, if given, gets each block's lines and the
    columns' positions first; csv reads the block it refuses and the rest.
    A row csv cannot read, such as one with a field over csv's size limit,
    raises ValidationError naming it.
    """
    # unreadable paths surface as OSError (an I/O failure, not a validation
    # failure); only malformed content raises ValidationError
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
        except csv.Error as exc:
            raise ValidationError("%s row 1: %s" % (path, exc)) from None
        missing = [c for c in columns if c not in header]
        if missing:
            raise ValidationError("%s is missing columns: %s"
                                  % (path, ", ".join(missing)))
        position = {name: k for k, name in enumerate(header)}
        picks = [position[c] for c in columns]
        first_row = 2
        if fast is not None:
            for lines in iter(lambda: list(itertools.islice(fh, _BLOCK_ROWS)), []):
                if not fast(lines, picks):
                    reader = csv.reader(itertools.chain(lines, fh))
                    break
                first_row += len(lines)
        rows = filter(None, reader)
        while True:
            block = []
            try:  # extend keeps the rows read before a failing one
                block.extend(itertools.islice(rows, _BLOCK_ROWS))
            except csv.Error as exc:
                raise ValidationError("%s row %d: %s"
                                      % (path, first_row + len(block), exc)) from None
            if not block:
                return
            try:
                cells = [list(map(itemgetter(c), block)) for c in picks]
            except IndexError:
                cells = [[r[c] if c < len(r) else None for r in block]
                         for c in picks]
            del block
            yield first_row, cells
            first_row += len(cells[0])


def _parse(cells, convert):
    """Convert a text column with ``convert`` (int or float).

    Returns the values and a mask of the cells ``convert`` rejects, or None
    when it rejects none; a rejected cell's value is ``convert(0)``.
    """
    try:
        return list(map(convert, cells)), None
    except (TypeError, ValueError):
        pass
    values, bad = [], np.zeros(len(cells), dtype=bool)
    for r, raw in enumerate(cells):
        try:
            values.append(convert(raw))
        except (TypeError, ValueError):
            values.append(convert(0))
            bad[r] = True
    return values, bad


def _repeats(keys, seen, first_row):
    """Flag the keys of a block that appeared in an earlier row.

    ``seen`` maps each key of earlier blocks to its row. Returns the mask,
    or None when nothing repeats, and the earlier row of each repeat by
    block position.
    """
    if len(set(keys)) == len(keys) and seen.keys().isdisjoint(keys):
        return None, {}
    mask, earlier, here = np.zeros(len(keys), dtype=bool), {}, {}
    for r, key in enumerate(keys):
        if key in seen or key in here:
            mask[r] = True
            earlier[r] = seen[key] if key in seen else here[key]
        else:
            here[key] = first_row + r
    return mask, earlier


def _raise_first(path, first_row, checks):
    """Raise for the first flagged row of a block, if any.

    ``checks`` lists (mask, message) in the order the checks apply within a
    row, so a row is named by its first failing check. ``message`` maps a
    block position to the text after the row number; a None mask flags
    nothing.
    """
    first = None
    for mask, message in checks:
        if mask is not None and mask.any():
            r = int(np.argmax(mask))
            if first is None or r < first[0]:
                first = (r, message)
    if first is not None:
        r, message = first
        raise ValidationError("%s row %d: %s" % (path, first_row + r, message(r)))


def _non_numeric(col, cells, whole=False):
    text = "%s value %r is not a whole number" if whole else "non-numeric %s value %r"
    return lambda r: text % (col, cells[r])


def _whole(cell):
    """An integer literal as an int, exact at any size, or a whole decimal (12.0, 1e3)."""
    try:
        return int(cell)
    except ValueError:
        value = float(cell)
        if value.is_integer():
            return int(value)
        raise


def _block_parser(node_ids, value):
    """``fast`` for :func:`_read_blocks` on two node-id columns and a
    ``value`` column (a numpy dtype).

    ``parse(lines, picks)`` returns the rows' node indices (-1 for an
    unknown id) and values, or None for a block csv must read: one with a
    quote, a NUL, a blank line or a line over csv's field limit, or one
    ``np.loadtxt`` refuses. numpy's str drops trailing NULs, so ids holding
    one are left out of the sorted id table, and its width (longest id + 1)
    keeps a file id cut to it unknown. Only an id that differs from the row
    above is looked up, as the writers repeat the first id over long runs.
    """
    known = {x: k for k, x in enumerate(node_ids) if "\0" not in x}
    order = sorted(known)
    names = np.array(order, dtype="U%d" % (max(map(len, order), default=0) + 1))
    codes = np.array([known[x] for x in order], dtype=np.intp)

    def lookup(ids):
        new = np.ones(len(ids), dtype=bool)
        new[1:] = ids[1:] != ids[:-1]
        heads = ids[new]
        pos = np.minimum(np.searchsorted(names, heads), len(names) - 1)
        return np.where(names[pos] == heads, codes[pos], -1)[np.cumsum(new) - 1]

    def parse(lines, picks):
        if (not known or '"' in (text := "".join(lines)) or "\0" in text
                or max(map(len, lines)) > csv.field_size_limit()
                or not {"\n", "\r\n", "\r"}.isdisjoint(lines)):
            return None
        try:
            rows = np.loadtxt(lines, dtype=[("ids", names.dtype, 2), ("value", value)],
                              delimiter=",", comments=None, usecols=picks, ndmin=1)
        except (ValueError, DeprecationWarning):
            return None
        # a copy of the values, as a view would keep the id columns alive
        return lookup(rows["ids"][:, 0]), lookup(rows["ids"][:, 1]), rows["value"].copy()

    return parse


_FLOW_COLUMNS = ("origin", "destination", "count")


def load_flows(path):
    """Read a flow edge list; returns (origin, destination, count) records.

    Counts must be non-negative whole numbers (``3``, ``3.0`` or ``1e3``);
    duplicate ordered pairs are rejected with their row number.
    """
    records = []
    seen = {}
    for first_row, (origin, destination, raw) in _read_blocks(path, _FLOW_COLUMNS):
        count, non_whole = _parse(raw, int)
        if non_whole is not None:
            count, non_whole = _parse(raw, _whole)
        negative = np.array([c < 0 for c in count]) if min(count) < 0 else None
        keys = list(zip(origin, destination))
        repeated, earlier = _repeats(keys, seen, first_row)
        _raise_first(path, first_row, [
            (non_whole, _non_numeric("count", raw, whole=True)),
            (negative, lambda r: "negative count %d" % count[r]),
            (repeated, lambda r: "duplicate ordered pair %r (first at row %d)"
             % (keys[r], earlier[r])),
        ])
        seen.update(zip(keys, range(first_row, first_row + len(keys))))
        records.extend(zip(origin, destination, count))
    return records


def _load_network(path, node_ids, period_label):
    """``build_network(load_flows(path), node_ids=..., period_label=...)``
    read into edge arrays, with no per-row records.

    A block csv must read, an unknown id, a self-loop, a negative count or a
    repeated ordered pair sends the whole file through :func:`load_flows`,
    whose message names the first offending row.
    """
    node_ids = [str(x) for x in node_ids]
    n = len(node_ids)
    parse = _block_parser(node_ids, np.int64)
    blocks = [(np.empty(0, dtype=np.int64),) * 2]  # (src * n + dst, count)

    def take(lines, picks):
        if (block := parse(lines, picks)) is None:
            return False
        i, j, count = block
        blocks.append((i * n + j, count))
        return bool(((i >= 0) & (j >= 0) & (i != j) & (count >= 0)).all())

    try:
        with warnings.catch_warnings():
            # numpy 1.x reads "3.5" into an int64 column as 3, with this warning
            warnings.simplefilter("error", DeprecationWarning)
            refused = next(_read_blocks(path, _FLOW_COLUMNS, take), None) is not None
    except ValidationError:  # csv could not read a row
        refused = True
    if not refused:
        pairs, count = (np.concatenate(c) for c in zip(*blocks))
        blocks.clear()
        if not (np.diff(np.sort(pairs)) == 0).any():
            keep = count != 0
            return FlowNetwork._from_arrays(n, *np.divmod(pairs[keep], n), count[keep],
                                            period_label, node_ids)
    return build_network(load_flows(path), node_ids=node_ids, period_label=period_label)


# (field, node-file columns, dtype) of each entry of NODE_COLUMNS
_NODE_FIELDS = [(f, (c,) if isinstance(c, str) else c, t) for f, c, t, _ in NODE_COLUMNS]
_NODE_HEADER = ("id", "state", "region") + tuple(c for _, cs, _ in _NODE_FIELDS for c in cs)


def load_nodes(path):
    """Read a node covariate table into a validated :class:`NodeTable`.

    Integer columns must hold whole numbers (``12``, ``12.0`` or ``1e3``).
    Racial percentage columns must sum to 100 per node (they become shares
    summing to 1); violations are rejected naming the node.
    """
    seen = {}
    table = {c: [] for c in _NODE_HEADER}
    for first_row, cells in _read_blocks(path, _NODE_HEADER):
        cells = dict(zip(_NODE_HEADER, cells))
        ids = cells["id"]
        repeated, earlier = _repeats(ids, seen, first_row)
        checks = [(repeated, lambda r: "duplicate node id %r (first at row %d)"
                   % (ids[r], earlier[r]))]
        for _, cols, dtype in _NODE_FIELDS:
            for col in cols:
                raw, whole = cells[col], dtype is np.int64
                cells[col], bad = _parse(raw, _whole if whole else float)
                checks.append((bad, _non_numeric(col, raw, whole)))
            if len(cols) > 1:
                total = list(map(sum, zip(*(cells[c] for c in cols))))
                off = np.abs(np.array(total) - 100.0) > 1e-7 * 100.0
                checks.append((off, lambda r: "racial percentages for node %r sum "
                               "to %.6f, expected 100" % (ids[r], total[r])))
        _raise_first(path, first_row, checks)
        seen.update(zip(ids, range(first_row, first_row + len(ids))))
        for col in _NODE_HEADER:
            table[col].extend(cells[col])
    if not table["id"]:
        raise ValidationError("%s contains no data rows" % path)
    columns = {}
    for field, cols, _ in _NODE_FIELDS:
        if len(cols) == 1:
            columns[field] = table[cols[0]]
        else:
            shares = np.column_stack([table[c] for c in cols]) / 100.0
            columns[field] = shares / shares.sum(axis=1, keepdims=True)
    return NodeTable(ids=table["id"], state=table["state"], region=table["region"], **columns)


def load_distances(path, node_ids):
    """Read pairwise distances into a dense km matrix over the given ids.

    Rows set both directions. Unknown ids, self-pairs, non-positive,
    non-finite and conflicting duplicate distances are rejected. Pairs
    never mentioned are NaN (completeness is enforced by
    :func:`build_dyad_covariates`).
    """
    node_ids = [str(x) for x in node_ids]
    index = {x: k for k, x in enumerate(node_ids)}
    n = len(node_ids)
    km = np.full((n, n), np.nan)
    np.fill_diagonal(km, 0.0)
    parse = _block_parser(node_ids, np.float64)

    def store(lines, picks):
        if (block := parse(lines, picks)) is None:
            return False
        i, j, d = block
        with np.errstate(invalid="ignore"):
            valid = (i >= 0) & (j >= 0) & (i != j) & (d > 0) & np.isfinite(d)
        if not valid.all() or _conflicts(km, i, j, d, valid).any():
            return False
        km[i, j] = km[j, i] = d
        return True

    for first_row, (id_a, id_b, raw) in _read_blocks(path, ("id_a", "id_b", "km"), store):
        size = len(raw)
        i = np.fromiter(map(index.get, id_a, itertools.repeat(-1)), np.intp, size)
        j = np.fromiter(map(index.get, id_b, itertools.repeat(-1)), np.intp, size)
        d, non_numeric = _parse(raw, float)
        d = np.asarray(d, dtype=np.float64)
        with np.errstate(invalid="ignore"):
            non_positive = d <= 0
        non_finite = ~np.isfinite(d)
        checks = [
            (i < 0, lambda r: "unknown node id %r" % (id_a[r],)),
            (j < 0, lambda r: "unknown node id %r" % (id_b[r],)),
            (i == j, lambda r: "distance given for a node to itself (%r)" % (id_a[r],)),
            (non_numeric, _non_numeric("km", raw)),
            (non_positive, lambda r: "non-positive distance %r between distinct "
             "nodes" % float(d[r])),
            (non_finite, lambda r: "non-finite distance %r between distinct "
             "nodes" % float(d[r])),
        ]
        valid = ~np.logical_or.reduce([m for m, _ in checks if m is not None])
        conflict = _conflicts(km, i, j, d, valid)
        checks.append((conflict, lambda r: "conflicting distance for (%r, %r)"
                       % (id_a[r], id_b[r])))
        _raise_first(path, first_row, checks)
        km[i, j] = km[j, i] = d
    return km


def _conflicts(km, i, j, d, valid):
    """Flag valid rows whose distance differs from the pair's earlier one.

    The earlier distance is the one ``km`` holds, or else that of the
    pair's first valid row in the block.
    """
    rows = np.flatnonzero(valid)
    pair = np.minimum(i[rows], j[rows]) * len(km) + np.maximum(i[rows], j[rows])
    order = np.argsort(pair, kind="stable")
    rows, pair = rows[order], pair[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = pair[1:] != pair[:-1]
    earlier = d[rows][first][np.cumsum(first) - 1]
    before = np.take(km, pair)
    earlier = np.where(np.isnan(before), earlier, before)
    conflict = np.zeros(len(d), dtype=bool)
    conflict[rows] = d[rows] != earlier
    return conflict


# -- writers (round-trip partners of the loaders) -------------------------------

def write_flows_csv(path, network):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["origin", "destination", "count"])
        for origin, destination, count in network.to_edge_records():
            writer.writerow([origin, destination, count])


def write_nodes_csv(path, nodes):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_NODE_HEADER)
        for k in range(nodes.n_nodes):
            row = [nodes.ids[k], nodes.state[k], nodes.region[k]]
            for field, cols, dtype in _NODE_FIELDS:
                value = getattr(nodes, field)[k]
                if dtype is np.int64:
                    row.append(int(value))
                elif len(cols) == 1:
                    row.append(repr(float(value)))
                else:
                    row.extend(repr(float(100.0 * s)) for s in value)
            writer.writerow(row)


def write_distances_csv(path, km, node_ids):
    ids = []  # each id as csv.writer quotes it in a two-field row; alone, "" is '""'
    csv.writer(SimpleNamespace(write=ids.append)).writerows((str(x), "") for x in node_ids)
    ids, km = [x[:-3] for x in ids], np.asarray(km, dtype=np.float64)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("id_a,id_b,km\r\n")
        for i, a in enumerate(ids):
            fh.write("".join(["%s,%s,%r\r\n" % (a, b, d) for b, d in
                              zip(ids[i + 1:], km[i, i + 1:len(ids)].tolist(), strict=True)]))


# -- group-flow aggregation ------------------------------------------------------

@dataclass(frozen=True)
class GroupFlowMatrix:
    """2x2 flow totals over a binary node partition.

    ``totals[a, b]`` is the flow from group-a origins to group-b
    destinations; ``column_proportions[:, b]`` are origin-group shares among
    migrants into group b (NaN when nothing flows into b).
    """

    totals: np.ndarray
    column_proportions: np.ndarray
    total_flow: int

    def share_into(self, dest_group, origin_group):
        return float(self.column_proportions[origin_group, dest_group])


def group_flow_matrix(network, partition):
    """Aggregate flows within and between the two groups of a partition.

    ``partition`` assigns 0 or 1 to every node.
    """
    part = np.asarray(partition)
    if part.shape != (network.n_nodes,):
        raise ValidationError("partition must assign a group to every node")
    if not np.all(np.isin(part, (0, 1))):
        raise ValidationError("partition values must be 0 or 1")
    part = part.astype(np.intp)
    src, dst, val = network.edge_arrays()
    totals = np.zeros((2, 2))
    np.add.at(totals, (part[src], part[dst]), val)
    colsum = totals.sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        props = np.where(colsum > 0, totals / colsum, np.nan)
    return GroupFlowMatrix(totals=totals, column_proportions=props,
                           total_flow=int(val.sum()))


# -- synthetic data ---------------------------------------------------------------

DEFAULT_COVARIATE_DISTRIBUTIONS = {
    "population": lambda rng, n: np.maximum(1, rng.lognormal(10.0, 1.0, n)).astype(np.int64),
    "density": lambda rng, n: rng.lognormal(-1.0, 1.0, n),
    "psr": lambda rng, n: np.clip(rng.normal(4.4, 1.2, n), 0.5, None),
    "racial_shares": lambda rng, n: rng.dirichlet((1.5, 1.0, 0.7, 6.0, 0.8), n),
    "renter_pct": lambda rng, n: 100.0 * rng.beta(3.5, 9.0, n),
    "highered_pct": lambda rng, n: 100.0 * rng.beta(2.5, 10.0, n),
    "unemployment_pct": lambda rng, n: 100.0 * rng.beta(2.0, 24.0, n),
    "rural_pct": lambda rng, n: 100.0 * rng.beta(1.3, 1.0, n),
    "democrat_poll_pct": lambda rng, n: 100.0 * rng.beta(4.2, 5.8, n),
    "immigrant_inflow": lambda rng, n: np.floor(rng.lognormal(4.0, 1.8, n)).astype(np.int64),
    "coords": lambda rng, n: rng.uniform(0.0, 3000.0, (n, 2)),
}


def synthetic_generate(n_nodes, model, theta_true, seed):
    """Generate a full synthetic dataset from known coefficients.

    Draws node covariates from the documented distributions of
    :data:`DEFAULT_COVARIATE_DISTRIBUTIONS`, derives distances from latent
    planar coordinates, simulates a lagged network from ``theta_true`` with any
    lagged-flow term dropped, then simulates the current network from the
    full model. Each network is the state of a chain after 40 proposals per
    dyad, started from the empty network. Everything is determined by
    ``seed``.

    Returns (current, lagged, NodeTable, DyadCovariateSet).
    """
    n_nodes = int(n_nodes)
    if n_nodes < 2:
        raise ValidationError("n_nodes must be >= 2")
    theta_true = model.check_theta(theta_true)
    dists = DEFAULT_COVARIATE_DISTRIBUTIONS

    root = np.random.SeedSequence(seed)
    cov_ss, lag_ss, cur_ss = root.spawn(3)
    rng = np.random.default_rng(cov_ss)

    n_states = max(2, n_nodes // 8)
    state_of_node = rng.integers(0, n_states, n_nodes)
    region_of_state = rng.choice(REGIONS, n_states)
    ids = ["n%04d" % k for k in range(n_nodes)]
    nodes = NodeTable(
        ids=ids,
        state=["s%03d" % s for s in state_of_node],
        region=[region_of_state[s] for s in state_of_node],
        **{f: draw(rng, n_nodes) for f, draw in dists.items() if f != "coords"})
    coords = dists["coords"](rng, n_nodes)
    diff = coords[:, None, :] - coords[None, :, :]
    km = np.sqrt((diff ** 2).sum(axis=2))
    off = ~np.eye(n_nodes, dtype=bool)
    km[off] = np.maximum(km[off], 1.0)

    n_dyads = n_nodes * (n_nodes - 1)

    def one_network(m, theta, dyads_, ss):
        cfg = ChainConfig(n_networks=1, burn_in=40 * n_dyads, thin=1, seed=ss)
        init = FlowNetwork.empty(n_nodes, node_ids=ids)
        return mcmc_simulate(m, theta, nodes, dyads_, init, cfg).networks[0]

    lag_terms = tuple(t for t in model.terms if t.kind != "lagged_log_flow")
    lag_theta = np.array([theta_true[k] for k, t in enumerate(model.terms)
                          if t.kind != "lagged_log_flow"])
    lag_model = ModelSpec(terms=lag_terms)
    dyads_nolag = build_dyad_covariates(nodes, km)
    lagged = one_network(lag_model, lag_theta, dyads_nolag, lag_ss)
    lagged = FlowNetwork._from_arrays(n_nodes, *lagged.edge_arrays(),
                                      period_label="lagged", node_ids=ids)

    dyads = build_dyad_covariates(nodes, km, lagged=lagged)
    current = one_network(model, theta_true, dyads, cur_ss)
    current = FlowNetwork._from_arrays(n_nodes, *current.edge_arrays(),
                                       period_label="current", node_ids=ids)
    return current, lagged, nodes, dyads
