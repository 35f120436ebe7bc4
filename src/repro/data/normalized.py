"""Synthetic normalized relations with a PK/FK star schema (paper Section IV).

Generates the paper's input shape: a fact relation ``S(sid, [y,] x_S, fk_1..q)``
and a list of attribute relations ``[R_1..R_q]``, ``R_i(rid, x_Ri)`` with
``S.fk_i -> R_i.rid``. The binary join is the list of one (q = 1).
Feature values are sampled from a mixture of Gaussians plus random noise,
"in accordance with previous work [22]" (Section VII-A).

Conventions relied on throughout the repo:

* ``rid`` values are the contiguous range ``1..nR`` — F-* trainers index the
  broadcast R feature matrix with ``fk - 1`` instead of executing a join;
* feature columns are ``xs_0..`` on S and ``xr{i}_0..`` on R_i, and the FK
  to R_i is ``fk_i``; this module is the one place that reads the convention
  (``infer_dims``, ``*_cols``);
* the joined feature layout is ``[x_S | x_R1 | ... | x_Rq]`` matching
  ``repro.core.linalg``.

Generators are deterministic in ``seed`` and produce pandas frames
(``*_pdf``; ``spark.createDataFrame`` converts one), so the DuckDB oracle and
the NumPy reference trainers see byte-identical data.
"""
from __future__ import annotations

import numpy as np
import pandas as pd


def s_feature_cols(d_s: int) -> list[str]:
    return [f"xs_{i}" for i in range(d_s)]


def r_feature_cols(d_r: int, table: int) -> list[str]:
    return [f"xr{table}_{i}" for i in range(d_r)]


def fk_cols(q: int) -> list[str]:
    return [f"fk_{i}" for i in range(1, q + 1)]


def infer_dims(s, rs: list) -> tuple[int, list[int]]:
    """``(dS, [dR1..dRq])`` of ``S`` and its list of attribute tables.

    Reads ``.columns``, so pandas and Spark frames both work. ``rs`` is a list
    even when q = 1; a bare frame raises ``TypeError`` before any Spark job.
    """
    if not isinstance(rs, list):
        raise TypeError(f"expected a list of attribute tables [R1..Rq], got {type(rs).__name__}")
    d_s = sum(c.startswith("xs_") for c in s.columns)
    return d_s, [sum(c.startswith(f"xr{t}_") for c in r.columns) for t, r in enumerate(rs, 1)]


def gaussian_mixture_features(n: int, d: int, seed: int, k_true: int = 5) -> np.ndarray:
    """n x d features from a k_true-component Gaussian mixture + N(0, 0.1^2) noise."""
    g = np.random.default_rng(seed)
    centers = g.normal(0.0, 2.0, size=(k_true, d))
    labels = g.integers(0, k_true, size=n)
    return centers[labels] + g.normal(0.0, 1.0, size=(n, d)) + g.normal(0.0, 0.1, size=(n, d))


def one_hot_features(n: int, width: int, seed: int) -> np.ndarray:
    """n x width sparse 0/1 features: consecutive one-hot categorical blocks.

    Used for the "(Sparse)" dataset variants of Table IV, where the real
    datasets were one-hot encoded. Blocks are 10 wide (the last one absorbs
    the remainder); exactly one 1 per block per row.
    """
    g = np.random.default_rng(seed)
    out = np.zeros((n, width))
    start = 0
    while start < width:
        w = min(10, width - start)
        if width - (start + w) == 1:  # avoid a degenerate width-1 last block
            w += 1
        choice = g.integers(0, w, size=n)
        out[np.arange(n), start + choice] = 1.0
        start += w
    return out


def multiway_relations_pdf(
    *,
    n_s: int,
    n_rs: list[int],
    d_s: int,
    d_rs: list[int],
    seed: int = 0,
    target: bool = False,
    sparse_s: bool = False,
    sparse_r: bool = False,
) -> tuple[pd.DataFrame, list[pd.DataFrame]]:
    """Generate ``S`` and ``[R_1..R_q]`` as pandas frames.

    ``sparse_s`` / ``sparse_r`` switch the feature generator to one-hot blocks
    (Table IV "Sparse" variants). When ``target`` is set, S carries a ``y``
    column computed from the *joined* features (a mildly nonlinear function
    plus noise) so the NN has signal that genuinely needs the join.
    """
    q = len(n_rs)
    if q != len(d_rs):
        raise ValueError(f"n_rs has {q} entries but d_rs has {len(d_rs)}: one (nR, dR) per table")
    g = np.random.default_rng(seed)
    feat = one_hot_features if sparse_r else gaussian_mixture_features
    rs: list[pd.DataFrame] = []
    xr_mats: list[np.ndarray] = []
    for t, (n_r, d_r) in enumerate(zip(n_rs, d_rs), start=1):
        xr = feat(n_r, d_r, seed + 100 + t)
        xr_mats.append(xr)
        rdf = pd.DataFrame(xr, columns=r_feature_cols(d_r, t))
        rdf.insert(0, "rid", np.arange(1, n_r + 1))
        rs.append(rdf)
    s_feat = one_hot_features if sparse_s else gaussian_mixture_features
    xs = s_feat(n_s, d_s, seed + 1)
    sdf = pd.DataFrame(xs, columns=s_feature_cols(d_s))
    fks = [g.integers(1, n_r + 1, size=n_s) for n_r in n_rs]
    for name, fk in zip(fk_cols(q), fks):
        sdf[name] = fk
    sdf.insert(0, "sid", np.arange(1, n_s + 1))
    if target:
        # y depends on features from *every* relation -> the join matters.
        acc = np.tanh(xs @ g.normal(0.0, 1.0 / max(1, d_s) ** 0.5, size=d_s))
        for xr, fk, d_r in zip(xr_mats, fks, d_rs):
            w = g.normal(0.0, 1.0 / max(1, d_r) ** 0.5, size=d_r)
            acc = acc + xr[fk - 1] @ w
        sdf.insert(1, "y", acc + g.normal(0.0, 0.1, size=n_s))
    return sdf, rs


def densify_pdf(
    s: pd.DataFrame, rs: list[pd.DataFrame]
) -> tuple[np.ndarray, np.ndarray | None]:
    """Materialize the joined feature matrix ``[x_S | x_R1 | ...]`` in NumPy.

    Ground-truth densification for the reference trainers; row order is S's
    order (``T`` has one row per S tuple, N = nS). Returns ``(X, y-or-None)``.
    """
    d_s, d_rs = infer_dims(s, rs)
    parts = [s[s_feature_cols(d_s)].to_numpy(dtype=np.float64)]
    for t, (r, d_r) in enumerate(zip(rs, d_rs), start=1):
        xr = r.sort_values("rid")[r_feature_cols(d_r, t)].to_numpy(dtype=np.float64)
        fk = s[f"fk_{t}"].to_numpy(dtype=np.int64)
        parts.append(xr[fk - 1])
    x = np.concatenate(parts, axis=1)
    y = s["y"].to_numpy(dtype=np.float64) if "y" in s.columns else None
    return x, y
