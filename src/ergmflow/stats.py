"""Sufficient statistics of count-valued network models.

A model is an ordered list of terms; each term maps a network (plus node and
dyad covariate tables) to one real statistic. The joint probability of a
network y is proportional to ``exp(theta . g(y)) / prod_ij y_ij!``, so the
zero-coefficient baseline is independent Poisson(1) dyads.

Term kinds
----------
sum             total flow, sum_ij y_ij (the intercept-like term)
nonzero         number of dyads with positive flow (zero-inflation control)
mutual_min      sum over unordered pairs {i, j} of min(y_ij, y_ji)
waypoint_flow   sum over nodes of min(out_volume, in_volume)
node_out        sum_ij y_ij * c_i for a named node covariate c
node_in         sum_ij y_ij * c_j
dyad            sum_ij y_ij * d_ij for a named dyad covariate d
lagged_log_flow sum_ij y_ij * log(1 + previous-period flow ij)

All but ``nonzero``, ``mutual_min`` and ``waypoint_flow`` are affine in any
single dyad value, and those three are piecewise-linear in it, which the
estimator and sampler exploit: one dyad's conditional distribution depends
on theta only through a per-dyad linear rate plus the nonlinear profiles.
:func:`linear_unit_change` is the one definition of each linear term; the
global statistics, :meth:`ChangeStats.linear_design` and the sampler's
:meth:`ChangeStats.linear_rate_matrix` all evaluate it on the dyads they need.
:func:`dependence_pieces` is the one definition of each nonlinear term's
single-dyad change, a function of six numbers around the dyad; the
estimator's segments (:meth:`ChangeStats.segment_bounds` and
``segment_terms``) and the sampler's acceptance ratio both read from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = [
    "TermSpec",
    "ModelSpec",
    "LINEAR_KINDS",
    "NONLINEAR_KINDS",
    "TERM_KINDS",
    "mutual_min_stat",
    "waypoint_flow_stat",
    "linear_unit_change",
    "dependence_pieces",
    "global_statistic",
    "statistic_vector",
    "conditional_profile",
    "ChangeStats",
    "model_to_dict",
    "model_from_dict",
]

LINEAR_KINDS = ("sum", "node_out", "node_in", "dyad", "lagged_log_flow")
NONLINEAR_KINDS = ("nonzero", "mutual_min", "waypoint_flow")
TERM_KINDS = LINEAR_KINDS + NONLINEAR_KINDS

_NEEDS_COVARIATE = ("node_out", "node_in", "dyad")


@dataclass(frozen=True)
class TermSpec:
    """One model term: a kind plus, for covariate kinds, a covariate name.

    ``label`` defaults to ``kind`` or ``kind:covariate`` and must be unique
    within a model.
    """

    kind: str
    covariate: str | None = None
    label: str = ""

    def __post_init__(self):
        if self.kind not in TERM_KINDS:
            raise ValidationError(
                "unknown term kind %r; expected one of %s" % (self.kind, ", ".join(TERM_KINDS)))
        if self.kind in _NEEDS_COVARIATE:
            if not self.covariate:
                raise ValidationError("term kind %r requires a covariate name" % self.kind)
        elif self.covariate:
            raise ValidationError("term kind %r does not take a covariate" % self.kind)
        if not self.label:
            default = self.kind if not self.covariate else "%s:%s" % (self.kind, self.covariate)
            object.__setattr__(self, "label", default)


@dataclass(frozen=True)
class ModelSpec:
    """Ordered term list defining the sufficient statistic vector."""

    terms: tuple[TermSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.terms:
            raise ValidationError("a model needs at least one term")
        labels = [t.label for t in self.terms]
        if len(set(labels)) != len(labels):
            raise ValidationError("duplicate term labels: %r" % (labels,))
        for kind in ("sum", "nonzero"):
            if sum(t.kind == kind for t in self.terms) > 1:
                raise ValidationError("at most one %r term is allowed" % kind)

    @property
    def labels(self):
        return tuple(t.label for t in self.terms)

    @property
    def n_terms(self):
        return len(self.terms)

    @property
    def has_lag(self):
        return any(t.kind == "lagged_log_flow" for t in self.terms)

    def index_of(self, label):
        for k, t in enumerate(self.terms):
            if t.label == label:
                return k
        raise ValidationError("no term labelled %r in model" % label)

    def check_theta(self, theta, name="theta"):
        """``theta`` as a float64 vector, one finite entry per term; errors name it ``name``."""
        try:
            theta = np.asarray(theta, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ValidationError("%s must hold numbers only: %s" % (name, exc)) from exc
        if theta.shape != (self.n_terms,):
            raise ValidationError(
                "%s has shape %r, model has %d terms" % (name, theta.shape, self.n_terms))
        if not np.all(np.isfinite(theta)):
            raise ValidationError("%s contains non-finite entries" % name)
        return theta


def model_to_dict(model):
    return {"terms": [{"kind": t.kind, "covariate": t.covariate, "label": t.label}
                      for t in model.terms]}


def model_from_dict(d):
    """The :class:`ModelSpec` of a model dict. The model holds ``terms`` and
    optionally ``lag_depth``, and a term ``kind`` and optionally
    ``covariate`` and ``label``; any other key raises ValidationError naming
    it. A ``lag_depth`` key, left in older configs and fit files, must be 1
    (the one previous period)."""
    terms = d.get("terms") if isinstance(d, dict) else None
    if not isinstance(terms, (list, tuple)) or not all(isinstance(t, dict) for t in terms):
        raise ValidationError("malformed model spec: need an object whose 'terms' "
                              "is a list of objects")
    unknown = ["model." + key for key in sorted(set(d) - {"terms", "lag_depth"})]
    for k, t in enumerate(terms):
        unknown += ["model.terms[%d].%s" % (k, key)
                    for key in sorted(set(t) - {"kind", "covariate", "label"})]
    if unknown:
        raise ValidationError("unknown model keys: %s" % ", ".join(unknown))
    lag_depth = d.get("lag_depth", 1)
    if isinstance(lag_depth, bool) or lag_depth != 1:
        raise ValidationError("model key 'lag_depth' must be 1 (one previous period), "
                              "got %r" % (lag_depth,))
    try:
        return ModelSpec(terms=tuple(
            TermSpec(kind=t["kind"], covariate=t.get("covariate"), label=t.get("label") or "")
            for t in terms))
    except KeyError as exc:
        raise ValidationError("malformed model spec: a term lacks %s" % exc) from exc


# -- global statistics -----------------------------------------------------

def mutual_min_stat(network):
    """Sum over unordered pairs of the smaller of the two opposing flows.

    Each unordered pair {i, j} is counted once (tie-break i < j); a pair with
    flow in only one direction contributes 0.
    """
    src, dst, val = network.edge_arrays()
    up = src < dst
    return int(np.minimum(val[up], network.values_at(dst[up], src[up])).sum())


def waypoint_flow_stat(network):
    """Sum over nodes of min(total outflow, total inflow).

    The per-node minimum is the volume that passes through the node; a node
    that only sends or only receives contributes 0.
    """
    return int(np.minimum(network.in_volumes(), network.out_volumes()).sum())


def linear_unit_change(term, ii, jj, nodes=None, dyads=None):
    """How much a linear term's statistic moves per unit of the values of
    the dyads (ii, jj), whose index arrays broadcast together: (D,) and (D,)
    for a batch, (n, 1) and (1, n) for every pair.

    The one place a linear term is resolved to its covariate. Returns an
    array that broadcasts to the dyads' shape: 1.0 for ``sum``, ``c[ii]``
    for ``node_out``, ``c[jj]`` for ``node_in``, and the covariate on each
    dyad for ``dyad`` and ``lagged_log_flow``. Unknown or unsupplied
    covariates raise :class:`ValidationError`.
    """
    kind = term.kind
    if kind == "sum":
        return np.float64(1.0)
    if kind in ("node_out", "node_in"):
        if nodes is None:
            raise ValidationError("node covariate %r requested but no node table supplied"
                                  % term.covariate)
        c = np.asarray(nodes.covariate(term.covariate), dtype=np.float64)
        return c[ii] if kind == "node_out" else c[jj]
    if kind in ("dyad", "lagged_log_flow"):
        name = term.covariate if kind == "dyad" else "lagged_log_flow"
        if dyads is None:
            raise ValidationError("dyad covariate %r requested but no dyad covariates supplied"
                                  % name)
        return np.asarray(dyads.values_at(name, ii, jj), dtype=np.float64)
    raise ValidationError("term kind %r is not linear in the dyad values" % kind)


def global_statistic(term, network, nodes=None, dyads=None):
    """Evaluate one term on a whole network. Returns a float."""
    src, dst, val = network.edge_arrays()
    v = val.astype(np.float64)
    kind = term.kind
    if kind == "nonzero":
        return float(len(v))
    if kind == "mutual_min":
        return float(mutual_min_stat(network))
    if kind == "waypoint_flow":
        return float(waypoint_flow_stat(network))
    return float(v @ np.broadcast_to(linear_unit_change(term, src, dst, nodes, dyads),
                                     v.shape))


def statistic_vector(model, network, nodes=None, dyads=None):
    """The full statistic vector g(y), one component per model term."""
    return np.array(
        [global_statistic(t, network, nodes, dyads) for t in model.terms],
        dtype=np.float64)


# -- change statistics -----------------------------------------------------

def dependence_pieces(kind, y_ij, out_i, in_j, y_ji, in_i, out_j):
    """A nonlinear term as a function of one dyad value v = y_ij.

    With every other dyad held fixed, the term's statistic is a constant
    plus the sum over the returned pieces (p, q) of min(p + v, q). The
    arguments, plain numbers or equal-shape arrays, are the dyad's
    neighbourhood s: y_ij, the volumes out_i and in_j that move with it,
    y_ji, and in_i and out_j. This is the one definition of each nonlinear
    term's change statistic; the global statistics are its reference.
    """
    if kind == "nonzero":  # 1[v > 0] is min(v, 1) on the integers
        return ((0, 1),)
    if kind == "mutual_min":
        return ((0, y_ji),)
    if kind == "waypoint_flow":  # out_i and in_j move with v, in_i and out_j do not
        return ((out_i - y_ij, in_i), (in_j - y_ij, out_j))
    raise ValidationError("term kind %r is not a dependence term" % kind)


class ChangeStats:
    """Vectorized single-dyad change statistics of one model.

    Evaluates, for batches of dyads (i, j) and candidate values v, the
    statistic contributions that move when y_ij is set to v while every
    other dyad stays fixed. Linear terms contribute x_ij * v with the
    per-dyad unit change x_ij of :func:`linear_unit_change`; the nonlinear
    terms contribute the segments of :meth:`segment_bounds` and
    :meth:`segment_terms`, read from :func:`dependence_pieces` on
    neighbourhoods s that the caller gathers from a network or a chain
    state. It keeps the term positions, covariates and ``network``'s size.

    Shared by the pseudo-likelihood estimator, the sampler and
    :func:`conditional_profile`; instances are read-only once built.
    Building one resolves every covariate the model names, so an unknown
    name raises :class:`ValidationError` here.
    """

    def __init__(self, model, network, nodes=None, dyads=None):
        self.n_nodes = network.n_nodes
        self.nodes = nodes
        self.dyads = dyads
        linear = [t.kind not in NONLINEAR_KINDS for t in model.terms]
        self.lin_pos = np.flatnonzero(linear)
        self.lin_terms = [model.terms[pos] for pos in self.lin_pos]
        self.nonlin_pos = np.flatnonzero(~np.array(linear, dtype=bool))
        self.nonlin = [(pos, model.terms[pos].kind) for pos in self.nonlin_pos]
        none = np.empty(0, dtype=np.intp)
        self.linear_design(none, none)  # resolves every covariate name

    def linear_design(self, ii, jj):
        """Per-unit change of each linear term on the given dyads: (D, L)."""
        out = np.empty((len(ii), len(self.lin_terms)), dtype=np.float64)
        for k, term in enumerate(self.lin_terms):
            out[:, k] = linear_unit_change(term, ii, jj, self.nodes, self.dyads)
        return out

    def linear_rate_matrix(self, theta):
        """Dense (n, n) linear log-rate sum_k theta_k x_ij,k over the linear
        terms whose theta_k is nonzero; the diagonal holds no dyad and is
        meaningless."""
        every_pair = np.ogrid[:self.n_nodes, :self.n_nodes]  # (n, 1) and (1, n)
        rate = np.zeros((self.n_nodes, self.n_nodes))
        for pos, term in zip(self.lin_pos, self.lin_terms):
            if theta[pos] != 0.0:
                rate += float(theta[pos]) * linear_unit_change(term, *every_pair,
                                                               self.nodes, self.dyads)
        return rate

    def _pieces(self, s):
        """(k, p, q) per piece of :func:`dependence_pieces` on ``s``: the
        term at ``nonlin_pos[k]`` gains min(p + v, q). p and q are (D, 1)
        columns, or 1 x 1 where the piece is the same on every dyad."""
        return [(k, np.reshape(p, (-1, 1)), np.reshape(q, (-1, 1)))
                for k, (_pos, kind) in enumerate(self.nonlin)
                for p, q in dependence_pieces(kind, *s)]

    def segment_bounds(self, s):
        """Lower bounds, int64 (D, S), of the integer segments of y_ij on
        which every nonlinear term is linear, for neighbourhoods s, six int
        arrays (y_ij, out_i, in_j, y_ji, in_i, out_j). The S <= 5 segments
        are one more than the breaks q - p, and both are exact in int64."""
        pieces = self._pieces(s)
        b = np.full((len(s[0]), 1 + len(pieces)), -1, dtype=np.int64)
        for col, (_k, p, q) in enumerate(pieces, 1):
            b[:, col:col + 1] = q - p
        return np.maximum(np.sort(b, axis=1), -1) + 1

    def segment_terms(self, s, lo):
        """(hi, c, d) of the segments of s whose lower bounds are ``lo``
        (:meth:`segment_bounds` in float64): segment t ends at hi[:, t], or
        inf, and the term at ``nonlin_pos[k]`` contributes c[:, t, k] +
        d[:, t, k] * y_ij on it; c is float64, d int8. Exact below 2**53."""
        hi = np.empty_like(lo)
        np.subtract(lo[:, 1:], 1.0, out=hi[:, :-1])
        hi[:, -1] = np.inf
        c = np.zeros(lo.shape + (len(self.nonlin),))
        d = np.zeros(c.shape, dtype=np.int8)  # slopes are 0, 1 or 2
        for k, p, q in self._pieces(s):
            p, q, brk = (np.asarray(a, dtype=np.float64) for a in (p, q, q - p))
            # a non-empty segment lies wholly on one side of each break q - p
            left = lo <= brk
            c[:, :, k] += np.where(left, p, q)
            d[:, :, k] += left
        return hi, c, d


def conditional_profile(model, network, nodes, dyads, dyad, v_max):
    """Statistic vectors as one dyad's value sweeps 0..v_max.

    Row v holds g evaluated on the network with y_ij set to v and every other
    dyad frozen at its observed value. Rows are built incrementally from the
    observed statistic vector and local change profiles, not by recomputing
    each statistic from scratch.

    Returns an array of shape (v_max + 1, n_terms).
    """
    i, j = dyad
    if i == j:
        raise ValidationError("conditional profile needs an off-diagonal dyad, got (%r, %r)" % (i, j))
    if v_max < 0:
        raise ValidationError("v_max must be >= 0, got %r" % (v_max,))
    y_obs = float(network.value(i, j))  # checks both nodes
    base = statistic_vector(model, network, nodes, dyads)
    cs = ChangeStats(model, network, nodes, dyads)
    ii = np.array([i], dtype=np.intp)
    jj = np.array([j], dtype=np.intp)
    vgrid = np.arange(v_max + 1, dtype=np.int64)

    prof = np.tile(base, (v_max + 1, 1))
    x = cs.linear_design(ii, jj)[0]
    for k, pos in enumerate(cs.lin_pos):
        prof[:, pos] += x[k] * (vgrid - y_obs)
    out_vol, in_vol = network.out_volumes(), network.in_volumes()
    s = (network.values_at(ii, jj), out_vol[ii], in_vol[jj],
         network.values_at(jj, ii), in_vol[ii], out_vol[jj])
    hi, c, d = cs.segment_terms(s, cs.segment_bounds(s).astype(np.float64))
    v = np.append(vgrid, y_obs)[:, None]
    at = np.sum(hi[0] < v, axis=1)  # the segment holding each value
    local = c[0, at] + d[0, at] * v
    prof[:, cs.nonlin_pos] += local[:-1] - local[-1]
    return prof

