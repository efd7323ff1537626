"""Independent reference for the closed-form metrics, vectorised over (q, r).

Written from the chain definitions alone (the `critmac.markov` module
docstrings and the paper), with plain `numpy.linalg.solve` on stacks of
small dense systems; it imports nothing from `critmac`.  The benchmark
checks the program's outputs against these values.

Chains, over the number of simultaneous transmissions in a slot:

* normal phase, states 0..N: row 0 is Binomial(N, q) (everyone saw idle),
  row 1 is theta on 0 and 1 - theta on 1 (only the run owner may send),
  row k >= 2 is Binomial(k, r) over 0..k (only the colliders may resend).
  T_c is the expected number of non-success slots from state 0 until state
  1, counting the idle slot; C_norm = 1 / (theta T_c + 1) = w(1) for the
  stationary vector w.
* critical phase, states 0..N-1 (transmitting normal users while the
  critical user sends every slot): row k is Binomial(k, r), state 0
  absorbing.  m[k-1] is the expected number of slots to absorb from k.

D_crit contracts d(l, a) with v(l, a) over the outcome of the last normal
slot: l other transmitters, own action a in {T, W}.
"""

from __future__ import annotations

from math import comb

import numpy as np


def _as_points(q, r) -> tuple[np.ndarray, np.ndarray]:
    q = np.atleast_1d(np.asarray(q, dtype=float))
    r = np.atleast_1d(np.asarray(r, dtype=float))
    return np.broadcast_arrays(q, r)


def binomial_rows(k: int, p: np.ndarray) -> np.ndarray:
    """Binomial(k, p) pmf over 0..k for each p; shape (len(p), k + 1)."""
    j = np.arange(k + 1)
    coef = np.array([comb(k, i) for i in j], dtype=float)
    p = p[:, None]
    return coef * p**j * (1.0 - p) ** (k - j)


def normal_chain(n: int, theta: float, q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Stack of normal-phase transition matrices, shape (B, N+1, N+1)."""
    mats = np.zeros((len(q), n + 1, n + 1))
    mats[:, 0, :] = binomial_rows(n, q)
    mats[:, 1, 0] = theta
    mats[:, 1, 1] = 1.0 - theta
    for k in range(2, n + 1):
        mats[:, k, : k + 1] = binomial_rows(k, r)
    return mats


def _solve_ones(a: np.ndarray) -> np.ndarray:
    """Solve a x = 1 for each matrix of the stack."""
    ones = np.ones(a.shape[:-1] + (1,))
    return np.linalg.solve(a, ones)[..., 0]


def contention_time(n: int, q, r) -> np.ndarray:
    """T_c at each (q, r): (I - Q) x = 1 on the normal chain without state 1."""
    q, r = _as_points(q, r)
    p = normal_chain(n, 0.5, q, r)  # T_c does not involve row or column 1
    keep = [0] + list(range(2, n + 1))
    block = p[:, keep][:, :, keep]
    return _solve_ones(np.eye(n) - block)[:, 0]


def stationary(p: np.ndarray) -> np.ndarray:
    """Stationary row vectors w P = w, sum w = 1, for a stack of chains."""
    dim = p.shape[-1]
    a = np.swapaxes(p - np.eye(dim), 1, 2).copy()
    a[:, -1, :] = 1.0  # one balance equation is redundant: normalise instead
    b = np.zeros((p.shape[0], dim, 1))
    b[:, -1, 0] = 1.0
    return np.linalg.solve(a, b)[..., 0]


def hitting_times(n: int, r: np.ndarray) -> np.ndarray:
    """m[:, k-1]: expected slots until the critical user succeeds from k colliders."""
    crit = np.zeros((len(r), n, n))
    crit[:, 0, 0] = 1.0
    for k in range(1, n):
        crit[:, k, : k + 1] = binomial_rows(k, r)
    return _solve_ones(np.eye(n - 1) - crit[:, 1:, 1:])


_CHUNK = 128  # points per stack of systems: keeps the (B, N+1, N+1) arrays small


def metrics(n: int, theta: float, q, r) -> dict[str, np.ndarray]:
    """T_c, C_norm, w(1), D_crit and enhanced D_crit at each (q, r)."""
    q, r = _as_points(q, r)
    parts = [_metrics(n, theta, q[i : i + _CHUNK], r[i : i + _CHUNK])
             for i in range(0, len(q), _CHUNK)]
    return {key: np.concatenate([p[key] for p in parts]) for key in parts[0]}


def _metrics(n: int, theta: float, q: np.ndarray, r: np.ndarray) -> dict[str, np.ndarray]:
    t_c = contention_time(n, q, r)
    w = stationary(normal_chain(n, theta, q, r))
    m = hitting_times(n, r)

    # d(l, a) for l = 0..N-1, columns a = T (0) and W (1)
    d = np.zeros((len(q), n, 2))
    d[:, 0, 1] = np.sum(binomial_rows(n - 1, q)[:, 1:] * m, axis=1)
    d[:, 1, 0] = m[:, 0] - 1.0
    d[:, 1, 1] = (1.0 - theta) * m[:, 0]
    d[:, 2:, 0] = m[:, 1:] - 1.0
    d[:, 2:, 1] = m[:, 1:] - 1.0
    # v(l, T) = (l+1)/N w(l+1), v(l, W) = (N-l)/N w(l)
    ell = np.arange(n)
    v = np.stack([(ell + 1) / n * w[:, 1:], (n - ell) / n * w[:, :-1]], axis=2)

    d_crit = np.sum(v * d, axis=(1, 2))
    # enhanced rules: the interrupted run owner waits after (success, failure)
    d_enh = d_crit + v[:, 1, 1] * ((1.0 - theta) - d[:, 1, 1])
    return {
        "t_c": t_c,
        "c_norm": 1.0 / (theta * t_c + 1.0),
        "w1": w[:, 1],
        "d_crit": d_crit,
        "d_crit_enhanced": d_enh,
    }


def point(n: int, theta: float, q: float, r: float) -> dict[str, float]:
    """`metrics` at a single (q, r), as plain floats."""
    return {k: float(v[0]) for k, v in metrics(n, theta, q, r).items()}
