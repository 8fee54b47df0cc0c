"""Local differential privacy mechanisms.

Eight mechanisms over a discrete domain of size k: generalized randomized
response (``grr``), the exponential mechanism with 0/1 utility (``exp``),
one-time RAPPOR (``rappor``), optimized unary encoding (``oue``), binary and
optimized local hashing (``blh``/``olh``), histogram encoding with Laplace
summation (``she``), and subset selection (``ss``). rappor and oue are both
unary encodings and differ only in their bit rates: rappor is symmetric
unary encoding (Wang et al.'s basic RAPPOR, Erlingsson et al.'s permanent
response), keeping each bit with probability e^(eps/2) / (1 + e^(eps/2)).
ss reports a subset of omega = max(1, floor(k / (e^eps + 1))) symbols that
holds the true one with probability p = omega e^eps / (omega e^eps + k -
omega), the other members uniform. With omega = 1, p is grr's keep
probability and the one other member is uniform over k - 1 symbols: ss is
then grr (Ye and Barg, IEEE Trans. IT 2018), drawn as grr's report and
stored one-hot. Larger subsets rank random keys.

Mechanisms work on whole columns: ``perturb_column`` perturbs a column of
symbol indices, ``decode_column`` maps the reports back into the input
alphabet (an inference attack), and ``estimate_frequencies`` gives an
unbiased frequency estimate.

Every mechanism with its decoder is a symmetric k-ary channel: it keeps the
true symbol with probability a = ``keep_probability()`` and otherwise
reports one of the other k - 1 symbols uniformly, which is grr at budget
ln(a (k - 1) / (1 - a)) (Kairouz, Oh and Viswanath, NeurIPS 2014).
``transition_matrix`` returns that channel for every kind, so exact leakage
analysis covers all eight. a has a closed form per kind, with (p, q) the
support rates below: a = p / omega for ss; for the unary and hash kinds
a = p E[1/(1+B)] + (1-p) (1-q)^(k-1) / k with B ~ Bin(k-1, q), taking an
ideal hash (q = 1/g); for she, decoded without a prior, a sums the ties of
the clipped Laplace scores at 0 and 1 and a 1-d integral over the scores in
between, evaluated by Gauss-Legendre quadrature.

Every report except ``she`` is a symbol or *supports* a set of input
symbols (the set bits for rappor/oue/ss, the hash preimage for blh/olh).
Decoding draws uniformly from that set, by one uniform u per report: member
floor(u m) of its m members, or symbol floor(u k) when the set is empty. An
ss report at omega = 1 holds one member, and decodes to it with no draw.
Frequency estimation debiases the per-symbol support counts with the rates
from ``_support_rates``. The support set is held symbol-major, as a (k, N)
mask, so every per-report reduction runs as k vector passes over the N
reports instead of N short rows; it is computed once per column and shared
by decode and estimate.
blh/olh hash every symbol under every report's seed once per column, in
perturbation: the report is drawn from its own symbol's hash, and the
support set is the hashes equal to the report.
``she`` draws its Laplace(0, b) noise as b E S, E a standard exponential
(numpy's ziggurat, where a Laplace draw takes a log per score) and S a
random sign, one random byte per 8 scores. It decodes to its posterior
argmax and breaks ties with the same uniform draw over a (k, N) mask of
the top-scoring symbols.

A column checks its payload once per spec, and a column that
``perturb_column`` built needs no check, so decoding and counting a fresh
column make no pass over it beyond their own.

Perturbation and decoding take an explicit generator so callers own
determinism; everything here is pure given the stream.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .data_model import PROB_TOL, _integer, _locked, _probability_table, _real
from .errors import InputError, UnsupportedMechanismError

KINDS = ("grr", "exp", "rappor", "oue", "blh", "olh", "she", "ss")

# Largest budget: e^eps is at most half the largest double, so that a row sum
# within PROB_TOL of 1 cannot take 1 + A (e^eps - 1) or top / low past it.
_EPSILON_MAX = math.log(sys.float_info.max / 2)

# Largest olh hash range: reports are int64 symbols below g, and the report
# sampler draws its alternatives from the int64 range [0, g - 1).
_OLH_G_MAX = 2 ** 63


def _check_epsilon(epsilon: float) -> None:
    """A budget is a real number (see ``data_model._real``) in [0, _EPSILON_MAX]."""
    if not 0 <= _real(epsilon, "epsilon") <= _EPSILON_MAX:
        raise InputError(f"epsilon must be a finite number in [0, {_EPSILON_MAX:.2f}], "
                         f"got {epsilon!r}")


@dataclass(frozen=True)
class MechanismSpec:
    """One mechanism with its privacy budget and domain size.

    All eight mechanisms are pure epsilon-LDP, so a spec has no delta; the
    (epsilon, delta) budget of the leakage bound is ``cpl_bound.BudgetParams``.
    """

    kind: str
    epsilon: float
    k: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InputError(f"unknown mechanism kind {self.kind!r}, expected one of {KINDS}")
        _check_epsilon(self.epsilon)
        object.__setattr__(self, "k", _integer(self.k, "domain size k"))
        if self.k < 2 and self.kind in ("grr", "exp", "ss"):
            raise InputError(f"{self.kind} requires domain size k >= 2")
        if self.k < 1:
            raise InputError("domain size k must be positive")
        if self.kind == "she" and self.epsilon <= 0:
            raise InputError("she requires epsilon > 0")
        if self.kind == "olh" and self.g > _OLH_G_MAX:
            raise InputError(f"olh hash range g = round(e^eps) + 1 must be at most 2^63, "
                             f"which needs epsilon below about {math.log(_OLH_G_MAX):.3f}; "
                             f"got epsilon {self.epsilon!r}")

    @property
    def g(self) -> int:
        """Hash range for the local-hashing mechanisms."""
        if self.kind == "blh":
            return 2
        if self.kind == "olh":
            return int(round(math.exp(self.epsilon))) + 1
        raise UnsupportedMechanismError(f"{self.kind} has no hash range")

    @property
    def subset_size(self) -> int:
        """Report size omega = max(1, floor(k / (e^eps + 1))) for ``ss``."""
        if self.kind != "ss":
            raise UnsupportedMechanismError(f"{self.kind} has no subset size")
        return max(1, int(math.floor(self.k / (math.exp(self.epsilon) + 1))))

    def keep_probability(self) -> float:
        """Diagonal a of the decoded channel: the probability that a report,
        decoded without a prior, is the true symbol."""
        w = _channel_weight(self)
        # With k = 1, w + k - 1 can round below w.
        return min(1.0, w / (w + self.k - 1))


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic p(output | input) table for a mechanism."""

    input_labels: tuple[str, ...]
    output_labels: tuple[str, ...]
    matrix: np.ndarray
    epsilon: float

    def __post_init__(self):
        mat = _probability_table(self.matrix, self.input_labels, self.output_labels,
                                 "transition")
        if (mat > 1).any():
            raise InputError("transition probabilities must lie in [0, 1]")
        if np.abs(mat.sum(axis=1) - 1.0).max() > PROB_TOL:
            raise InputError("every transition row must sum to 1")
        if math.isnan(self.epsilon):  # inf stands for a channel with no pure bound
            raise InputError("transition matrix budget must be a number, got nan")
        if math.isfinite(self.epsilon):
            cmax = mat.max(axis=0)
            cmin = mat.min(axis=0)
            bound = math.exp(self.epsilon) * (1 + 1e-9)
            if (cmax > cmin * bound).any():
                raise InputError("transition matrix violates the pure-LDP ratio bound at its epsilon")
        object.__setattr__(self, "matrix", _locked(mat))

    @property
    def n_inputs(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_outputs(self) -> int:
        return self.matrix.shape[1]


def transition_matrix(spec: MechanismSpec) -> TransitionMatrix:
    """The decoded channel P(decoded symbol | true symbol) of ``spec``."""
    labels = tuple(str(i) for i in range(spec.k))
    mat = np.full((spec.k, spec.k), 1.0 / (_channel_weight(spec) + spec.k - 1))
    np.fill_diagonal(mat, spec.keep_probability())
    return TransitionMatrix(labels, labels, mat, spec.epsilon)


def _channel_weight(spec: MechanismSpec) -> float:
    """Ratio w of the decoded channel's diagonal entry to each entry off it."""
    kind, k = spec.kind, spec.k
    e_eps = math.exp(spec.epsilon)
    if kind == "grr":
        return e_eps
    if kind == "exp":
        # 0/1 utility, sensitivity 1: score exp(eps * u / 2).
        return math.exp(spec.epsilon / 2.0)
    a = _decoded_keep(spec)
    # Decoding post-processes an eps-LDP report, so w <= e^eps: the clamp
    # loses nothing, and keeps rounding near a = 1 within the budget. With
    # k = 1 there is no off-diagonal entry, and any w gives [[1.0]].
    if k == 1 or a >= 1.0:
        return e_eps
    return min(e_eps, a * (k - 1) / (1.0 - a))


def _decoded_keep(spec: MechanismSpec) -> float:
    """Closed-form probability a that decoding returns the true symbol."""
    if spec.kind == "she":
        return _she_keep(spec.epsilon, spec.k)
    p, q = _support_rates(spec)
    if spec.kind == "ss":
        return p / spec.subset_size
    # rappor/oue/blh/olh: the support set holds the true symbol w.p. p and
    # each other symbol w.p. q, independently; the draw is uniform over the
    # set, or over all k symbols when it is empty.
    return p * _mean_share(q, spec.k) + (1.0 - p) * (1.0 - q) ** (spec.k - 1) / spec.k


def _mean_share(q: float, k: int) -> float:
    """E[1/(1+B)] for B ~ Bin(k-1, q), q > 0: (1 - (1-q)^k) / (k q),
    accurate as q -> 0."""
    return -math.expm1(k * math.log1p(-q)) / (k * q)


@functools.cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]:
    Newton's method on the Legendre recurrence, from the classic estimate
    cos(pi (i + 3/4) / (n + 1/2)) of the roots. Unlike an eigenvalue method it
    leaves LAPACK, which costs about 2 MiB of RSS to set up, unloaded."""
    x = np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(5):  # for n = 64: nodes at rounding level after 3 steps, weights after 4
        p_prev, p = np.ones(n), x
        for j in range(2, n + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        slope = n * (x * p - p_prev) / (x * x - 1.0)
        x = x - p / slope
    return x, 2.0 / ((1.0 - x * x) * slope * slope)


def _she_keep(epsilon: float, k: int) -> float:
    """a for she decoded without a prior. The true symbol scores
    X = clip(1 + L, 0, 1) and each other symbol Y = clip(L', 0, 1), with L, L'
    Laplace of scale b = 2/eps. X = 1 w.p. 1/2 and ties the M ~ Bin(k-1, s)
    others at 1, s = e^(-1/b)/2; X = 0 w.p. s and wins only in the all-zero
    tie; for X = z in (0, 1) it wins when every Y < z, w.p. (1 - e^(-z/b)/2)
    each."""
    b = 2.0 / epsilon
    s = 0.5 * math.exp(-1.0 / b)
    nodes, weights = _gauss_legendre(64)
    z = (nodes + 1.0) / 2.0
    density = np.exp(-(1.0 - z) / b) / (2.0 * b)
    inner = 0.5 * float(weights @ (density * (1.0 - 0.5 * np.exp(-z / b)) ** (k - 1)))
    return 0.5 * _mean_share(s, k) + s * 0.5 ** (k - 1) / k + inner


@dataclass(frozen=True)
class PerturbedColumn:
    """A whole column of perturbed reports stored as arrays.

    Payload layout by kind: grr/exp -> (N,) symbol indices; rappor/oue ->
    (N, k) bit matrix; blh/olh -> (seeds, reports) arrays; she -> (N, k)
    reals; ss -> (N, k) subset membership mask, omega members a row. Treat
    the payload as read-only: the first decode or estimate caches the
    support set built from it, and a check records the spec that the
    payload passed.
    """

    spec: MechanismSpec
    payload: object
    #: The spec whose payload checks this column passed; a column from
    #: ``perturb_column`` is valid by construction.
    _checked: MechanismSpec | None = field(default=None, init=False, repr=False, compare=False)

    def __len__(self) -> int:
        if self.spec.kind in ("blh", "olh"):
            return len(self.payload[0])
        return len(self.payload)

    @cached_property
    def _support(self) -> np.ndarray:
        """The (k, N) support set, built on first use by decode or estimate."""
        return _support_set(self)


def _check_column(spec: MechanismSpec, column) -> None:
    """Check ``column`` against ``spec``; its payload once per spec."""
    if not isinstance(column, PerturbedColumn):
        raise InputError("expected a PerturbedColumn")
    if column.spec.kind != spec.kind or column.spec.k != spec.k:
        raise InputError("column was produced by a different mechanism spec")
    if column._checked == spec:
        return
    kind = spec.kind
    if kind in ("rappor", "oue", "she", "ss") and np.shape(column.payload)[1:] != (spec.k,):
        raise InputError(f"{kind} payload must have one column per symbol, k = {spec.k}")
    if kind == "ss" and (np.count_nonzero(column.payload, axis=1) != spec.subset_size).any():
        raise InputError(f"every ss report must hold omega = {spec.subset_size} members")
    if kind == "she" and not np.isfinite(np.asarray(column.payload, dtype=np.float64)).all():
        raise InputError("she payload must be finite")
    if kind in ("grr", "exp"):
        _check_symbols(column.payload, spec.k, f"{kind} payload")
    elif kind in ("blh", "olh"):
        seeds, reports = column.payload
        if np.shape(seeds) != np.shape(reports):
            raise InputError(f"{kind} seeds and reports must have equal length")
        _check_symbols(reports, spec.g, f"{kind} reports")
    object.__setattr__(column, "_checked", spec)


def _check_symbols(values, size: int, what: str) -> np.ndarray:
    """``values`` as an array, checked to be 1-d integer symbols in [0, size)."""
    values = np.asarray(values)
    if values.ndim != 1 or not np.issubdtype(values.dtype, np.integer):
        raise InputError(f"{what} must be a 1-d array of integer symbols")
    if values.size and (values.min() < 0 or int(values.max()) >= size):
        raise InputError(f"{what} must lie in [0, {size})")
    return values


# --------------------------------------------------------------------------
# Keyed 64-bit mixing hash for the local-hashing mechanisms. A fresh random
# key per report gives the universality the protocol needs.
# --------------------------------------------------------------------------

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_PIECE = 1 << 15  # elements per piece of a pass: 256 KiB per 8-byte temporary

# Index of the byte of a native float64 that holds its sign bit.
_SIGN_BYTE = 7 if sys.byteorder == "little" else 0


def _mix64(x: np.ndarray) -> np.ndarray:
    """Mix a uint64 array in place and return it."""
    x += _GOLDEN
    t = np.right_shift(x, np.uint64(30))
    x ^= t
    x *= _M1
    np.right_shift(x, np.uint64(27), out=t)
    x ^= t
    x *= _M2
    np.right_shift(x, np.uint64(31), out=t)
    x ^= t
    return x


def _hash_bucket(values, seeds, g: int) -> np.ndarray:
    """Bucket in [0, g) of each value under its report's seed; broadcasts.
    Works through the last axis in pieces of about ``_PIECE`` elements,
    so the mixing passes run on temporaries that stay in cache. Each piece is
    reduced bit for bit to x % g: by one ``&`` with g - 1 when g is a power of
    two, else as x - (x // g) g, since numpy divides by a scalar through a
    fast path that its uint64 remainder lacks."""
    v = _mix64(np.asarray(values, dtype=np.uint64) + np.uint64(1))
    s = np.asarray(seeds, dtype=np.uint64)
    shape = np.broadcast_shapes(v.shape, s.shape)
    v, s = np.broadcast_to(v, shape), np.broadcast_to(s, shape)
    x = np.empty(shape, dtype=np.uint64)
    mask = np.uint64(g - 1) if g & (g - 1) == 0 else None
    g = np.uint64(g)
    step = max(1, _PIECE // max(1, math.prod(shape[:-1])))
    for lo in range(0, shape[-1], step):
        piece = np.s_[..., lo:lo + step]
        mixed = _mix64(np.bitwise_xor(v[piece], s[piece], out=x[piece]))
        if mask is None:
            mixed -= mixed // g * g
        else:
            mixed &= mask
    return x.view(np.int64)  # buckets are below g <= 2^63


def _random_seeds(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.integers(0, np.iinfo(np.uint64).max, size=n, dtype=np.uint64, endpoint=True)


def _support_set(column: PerturbedColumn, buckets: np.ndarray | None = None) -> np.ndarray:
    """(k, N) bool mask of the input symbols each report supports: the set
    bits for rappor/oue/ss, the hash preimage for blh/olh, whose (k, N) hash
    table ``buckets`` is computed unless given. Read it through
    ``column._support``, which builds it once per column; a perturbed
    blh/olh column is built with it."""
    spec = column.spec
    if spec.kind in ("blh", "olh"):
        seeds, reports = column.payload
        if buckets is None:
            buckets = _hash_bucket(np.arange(spec.k)[:, None], seeds[None, :], spec.g)
        return buckets == reports[None, :]
    return np.asarray(column.payload).T.astype(bool, order="C")


def _support_rates(spec: MechanismSpec) -> tuple[float, float]:
    """Probabilities that a report supports its true symbol and that it
    supports a given other symbol. The first is also the keep/inclusion
    probability that perturbation draws with, for every kind but she."""
    kind, k = spec.kind, spec.k
    e_eps = math.exp(spec.epsilon)
    if kind in ("grr", "exp"):
        p = spec.keep_probability()
        return p, (1.0 - p) / (k - 1)
    if kind == "oue":
        return 0.5, 1.0 / (e_eps + 1.0)
    if kind == "rappor":
        # Symmetric unary encoding: each bit kept w.p. e^(eps/2)/(1+e^(eps/2)),
        # so a report's likelihood ratio is (p/q)(1-q)/(1-p) = e^eps.
        half = math.exp(spec.epsilon / 2.0)
        return half / (half + 1.0), 1.0 / (half + 1.0)
    if kind in ("blh", "olh"):
        g = spec.g
        return e_eps / (e_eps + g - 1), 1.0 / g
    if kind == "ss":
        omega = spec.subset_size
        p_in = omega * e_eps / (omega * e_eps + k - omega)
        q_in = (p_in * (omega - 1) + (1 - p_in) * omega) / (k - 1)
        return p_in, q_in
    raise UnsupportedMechanismError(f"{kind} has no support-count estimator")


# --------------------------------------------------------------------------
# Perturbation
# --------------------------------------------------------------------------

def _grr_sample(values: np.ndarray, keep_p: float, k: int, rng: np.random.Generator) -> np.ndarray:
    drop = rng.random(values.shape) >= keep_p
    alt = rng.integers(0, k - 1, size=values.shape)
    alt += alt >= values  # uniform over the k-1 other symbols
    # Kept reports take their values as values - (values - alt) * drop, in
    # place and with no branch per report, which a copy masked by the
    # random keep bits would mispredict.
    np.subtract(values, alt, out=alt)
    alt *= drop
    np.subtract(values, alt, out=alt)
    return alt


def perturb_column(spec: MechanismSpec, values, rng: np.random.Generator) -> PerturbedColumn:
    """Perturb a full column of symbol indices under ``spec``."""
    values = _check_symbols(values, spec.k, "values").astype(np.int64, copy=False)
    n, k = values.shape[0], spec.k
    kind = spec.kind

    if kind == "she":
        # Laplace(0, b) as b E S: E standard exponential, by the ziggurat,
        # where a Laplace draw takes a log per score, and S a random sign,
        # one random byte per 8 scores. A sign flips its float's sign bit
        # through the byte that holds it. Signs are drawn and set a piece
        # at a time, so that their temporaries stay small and in cache; a
        # piece's bytes are whole 64-bit draws, so the pieces draw the
        # bytes that one draw for the block would.
        y = rng.standard_exponential((n, k))
        y *= 2.0 / spec.epsilon
        top = y.reshape(-1).view(np.uint8)[_SIGN_BYTE::8]
        for lo in range(0, top.size, _PIECE):
            count = min(_PIECE, top.size - lo)
            signs = rng.integers(0, 256, size=-(-count // 8), dtype=np.uint8)
            flip = np.unpackbits(signs, count=count)
            flip <<= 7
            top[lo:lo + count] ^= flip
        # Adding the one-hot in place is exact: a zero draw with its sign
        # flipped is -0.0, and -0.0 + 1.0 is still exactly 1.0.
        y.ravel()[_row_major(values, k)] += 1.0
        return _reported(spec, y)

    p, q = _support_rates(spec)

    if kind in ("grr", "exp"):
        return _reported(spec, _grr_sample(values, p, k, rng))

    if kind in ("rappor", "oue"):
        u = rng.random((n, k))
        reported = u < q
        own = _row_major(values, k)
        reported.ravel()[own] = u.ravel()[own] < p
        return _reported(spec, reported.view(np.uint8))

    if kind in ("blh", "olh"):
        # The (k, N) hash of every symbol under every report's seed, once
        # for both uses: each report perturbs its own symbol's entry, found
        # by one flat index, and the support set is the entries equal to it.
        seeds = _random_seeds(rng, n)
        buckets = _hash_bucket(np.arange(k)[:, None], seeds[None, :], spec.g)
        reports = _grr_sample(buckets.ravel()[values * n + np.arange(n)], p, spec.g, rng)
        column = _reported(spec, (seeds, reports))
        object.__setattr__(column, "_support", _support_set(column, buckets))
        return column

    # ss: report a subset of size omega containing the true value w.p. p.
    omega = spec.subset_size
    members = np.zeros((n, k), dtype=bool)
    flat = members.ravel()
    if omega == 1:
        # p = e^eps / (e^eps + k - 1) is grr's keep probability, and the one
        # member is otherwise uniform over the k - 1 other values: the report
        # is grr's, one-hot.
        flat[_row_major(_grr_sample(values, p, k, rng), k)] = True
        return _reported(spec, members)
    include = rng.random(n) < p
    keys = rng.random((n, k))
    own = _row_major(values, k)
    keys.ravel()[own] = np.inf  # others ranked first
    # Members are the omega - 1 lowest keys, plus the omega-th lowest when
    # the true value is left out. A partition at omega - 1 puts the
    # omega - 1 lowest first, in some order, and the omega-th lowest next,
    # the same member set a full row sort gives.
    order = np.argpartition(keys, omega - 1, axis=1)
    order += np.arange(0, n * k, k)[:, None]
    flat[order[:, :omega - 1]] = True
    flat[order[:, omega - 1]] = ~include
    flat[own] = include
    return _reported(spec, members)


def _reported(spec: MechanismSpec, payload) -> PerturbedColumn:
    """A column of ``perturb_column``'s, whose payload needs no check."""
    column = PerturbedColumn(spec, payload)
    object.__setattr__(column, "_checked", spec)
    return column


def _row_major(values: np.ndarray, k: int) -> np.ndarray:
    """Flat index of entry (i, values[i]) of each row i of an (N, k) table:
    one index, where a pair of row and column indices costs two."""
    index = np.arange(0, values.shape[0] * k, k)
    index += values
    return index


# --------------------------------------------------------------------------
# Inference-attack decoding back into the input alphabet
# --------------------------------------------------------------------------

def _uniform_over_mask(mask: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw over the set entries of each column of a (k, N) mask;
    uniform over all k symbols for columns with no set entry. One uniform u
    per column picks floor(u m), m its count of set entries, or k when it
    has none, and an empty column takes that pick as its symbol."""
    k, n = mask.shape
    small = np.min_scalar_type(k)  # holds every count, pick and index
    counts = mask.sum(axis=0, dtype=small)
    empty = np.multiply(counts == 0, k, dtype=small)  # k on empty columns, else 0
    counts += empty
    # The product is below the count and never negative, so the truncating
    # cast is its floor.
    pick = (rng.random(n) * counts).astype(small)
    chosen = _nth_member(mask, pick)
    # An empty column reads k: it takes its pick instead, by arithmetic
    # rather than a copy masked by the random empty columns, which would
    # mispredict its branch.
    chosen -= empty
    np.minimum(empty, pick, out=empty)  # the pick on empty columns, else 0
    chosen += empty
    return chosen.astype(np.int64)


def _nth_member(mask: np.ndarray, pick: np.ndarray) -> np.ndarray:
    """Row of the pick-th set entry (from 0) of each column of a (k, N)
    mask: the number of prefixes whose count is at most the pick. A column
    with at most pick set entries reads k."""
    n = mask.shape[1]
    chosen = np.zeros(n, dtype=pick.dtype)
    running = np.zeros(n, dtype=pick.dtype)
    below = np.empty(n, dtype=bool)
    for row in mask:
        running += row
        np.less_equal(running, pick, out=below)
        chosen += below
    return chosen


def decode_column(spec: MechanismSpec, column: PerturbedColumn,
                  rng: np.random.Generator) -> np.ndarray:
    """Decode a perturbed column into symbol indices."""
    _check_column(spec, column)
    kind = spec.kind

    if kind in ("grr", "exp"):
        # Output domain equals input domain: take the report as the value.
        return np.asarray(column.payload, dtype=np.int64)

    if kind == "ss" and spec.subset_size == 1:
        # Every report holds one member, which a draw would pick w.p. 1:
        # take it, and leave the stream alone.
        first = np.zeros(len(column), dtype=np.min_scalar_type(spec.k))
        return _nth_member(column._support, first).astype(np.int64)

    if kind != "she":
        return _uniform_over_mask(column._support, rng)

    # she: Bayes-optimal argmax of the posterior under the Laplace likelihood,
    # ties broken uniformly by the same draw as the support sets.
    # With b = 2/eps, log p(y | v) = -||y - onehot(v)||_1 / b + const and
    # ||y - onehot(v)||_1 = sum|y| + 1 - 2 clip(y_v, 0, 1), so the posterior
    # under a uniform prior ranks symbols by clip(y_v, 0, 1). clip is exact,
    # so the ties are exactly those of exact arithmetic. Scores are
    # symbol-major, (k, N), so the max and the draw run as k passes over N;
    # they are clipped a piece of reports at a time, so the (k, N) floats
    # never exist at once.
    y = np.asarray(column.payload, dtype=np.float64)
    n, k = y.shape
    top = np.empty((k, n), dtype=bool)
    step = max(1, _PIECE // k)
    for lo in range(0, n, step):
        scores = np.clip(y[lo:lo + step].T, 0.0, 1.0, order="C")
        np.equal(scores, scores.max(axis=0), out=top[:, lo:lo + step])
    return _uniform_over_mask(top, rng)


# --------------------------------------------------------------------------
# Frequency estimation
# --------------------------------------------------------------------------

def support_counts(spec: MechanismSpec, column: PerturbedColumn) -> np.ndarray:
    """Per-symbol support counts of a column's reports, or for she its summed
    report vectors. Counts of row slices of a column add up to the counts of
    the whole column, so a column can be counted in pieces."""
    _check_column(spec, column)
    if spec.kind == "she":
        y = np.asarray(column.payload, dtype=np.float64)
        # Over two or more columns, einsum adds the rows in order, as
        # sum(axis=0) does, at a fraction of its cost per row; one column
        # both sum pairwise, but not alike.
        return y.sum(axis=0) if spec.k == 1 else np.einsum("ij->j", y)
    if spec.kind in ("grr", "exp"):
        return np.bincount(np.asarray(column.payload), minlength=spec.k)
    # One count per symbol's row: a count along axis 1 casts every entry.
    return np.fromiter(map(np.count_nonzero, column._support), dtype=np.intp, count=spec.k)


def debias_counts(spec: MechanismSpec, counts, n: int) -> np.ndarray:
    """Unbiased frequency estimate from the :func:`support_counts` of ``n``
    reports, clipped to [0, 1] and renormalized."""
    k = spec.k
    counts = np.asarray(counts)
    if counts.shape != (k,):
        raise InputError(f"need one count per symbol, k = {k}")
    if n <= 0:
        raise InputError("no outputs to estimate from")
    if spec.kind == "she":
        est = counts / n
    else:
        p, q = _support_rates(spec)
        if p == q:
            est = np.full(k, 1.0 / k)
        else:
            est = (counts / n - q) / (p - q)

    est = np.clip(est, 0.0, 1.0)
    total = est.sum()
    if total <= 0:
        return np.full(k, 1.0 / k)
    return est / total


def estimate_frequencies(spec: MechanismSpec, column: PerturbedColumn) -> np.ndarray:
    """Unbiased frequency estimate from a perturbed column, clipped to [0, 1]
    and renormalized."""
    counts = support_counts(spec, column)
    return debias_counts(spec, counts, len(column))
