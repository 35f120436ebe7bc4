"""Workload definitions for every evaluation artifact (DESIGN.md Section 4).

Each table and figure of the paper is declared once, as data: a list of
``Config`` (dataset, row scale, model size). The ``*_rows`` functions run the
M/S/F matrix of the harness over one such list, and the pytest-benchmark
suites in ``benchmarks/`` parametrize over the same lists. The paper's
published numbers are kept here (``PAPER_TABLE6`` / ``PAPER_TABLE7``) so
EXPERIMENTS.md and the jobs can print paper-vs-measured side by side.

Scaling: real-dataset simulations run at ``realsim.ROW_SCALE`` row scale with
exact paper feature dimensions; synthetic sweeps use nR=200 (paper: 1000) and
nS up to 1e5 (paper: up to 5e6) — the sweep *axes* (rr, dR, K, nh) are the
paper's. Iteration counts are fixed and identical across algorithms (GMM: 5
for Table VI / 3 for sweeps; NN epochs likewise), so the ratios the paper
reports are comparable even though absolute seconds are not.
"""
from __future__ import annotations

from dataclasses import dataclass

import pandas as pd
from pyspark.sql import SparkSession

from repro.bench.harness import Row, run_matrix
from repro.data import realsim
from repro.data.realsim import DatasetSpec

TABLE_ITERS = 5  # Table VI GMM iterations / Table VII NN epochs
SWEEP_ITERS = 3  # figure sweeps

# Paper numbers (seconds) — Table VI and VII verbatim, for EXPERIMENTS.md.
PAPER_TABLE6 = {
    "Expedia1(Not Sparse)": {"M-GMM": 2140.1, "S-GMM": 2244.3, "F-GMM": 1014.2},
    "Expedia2(Not Sparse)": {"M-GMM": 1221.1, "S-GMM": 1248.5, "F-GMM": 593.1},
    "Walmart (Not Sparse)": {"M-GMM": 595.9, "S-GMM": 602.9, "F-GMM": 212.1},
    "Movies (Not Sparse)": {"M-GMM": 1691.7, "S-GMM": 1755.8, "F-GMM": 514.6},
    "Expedia3 (Augmented)": {"M-GMM": 1673.5, "S-GMM": 1750.9, "F-GMM": 639.3},
    "Expedia4 (Augmented)": {"M-GMM": 6129.6, "S-GMM": 6311.4, "F-GMM": 1843.3},
    "Expedia5 (Augmented)": {"M-GMM": 23270.6, "S-GMM": 23375.1, "F-GMM": 9779.3},
    "Movies-3way": {"M-GMM": 2455.3, "S-GMM": 2883.1, "F-GMM": 715.1},
}
PAPER_TABLE7 = {
    "Walmart (Sparse)": {"M-NN": 743.1, "S-NN": 845.5, "F-NN": 104.1},
    "Movies (Sparse)": {"M-NN": 437.4, "S-NN": 507.2, "F-NN": 112.3},
    "Movies-3way": {"M-NN": 890.1, "S-NN": 1022.3, "F-NN": 202.1},
}


@dataclass(frozen=True)
class Config:
    """One row of a table or figure: a dataset, its row scale and model size."""

    spec: DatasetSpec
    size: int  # GMM: K components; NN: nh hidden units
    scale: float = 1.0

    @property
    def name(self) -> str:
        return self.spec.name

    def generate_pdf(self) -> tuple[pd.DataFrame, list[pd.DataFrame]]:
        return self.spec.generate_pdf(self.scale)


# Result tables (VI, VII): K=5 / nh=50 on the simulated real datasets.
TABLE6 = [Config(spec, 5, realsim.ROW_SCALE) for spec in realsim.GMM_REAL.values()]
TABLE7 = [Config(spec, 50, realsim.ROW_SCALE) for spec in realsim.NN_REAL.values()]

# Figure sweeps (3-6) as tables — scaled synthetic grids on the paper's axes.
_SWEEP_NR = 200  # paper: nR = 1000
_SWEEP_NS = 100_000  # paper: nS = 1e6


def _binary_sweep(
    seed: int, size_name: str, size: int, sizes: tuple, target: bool
) -> list[Config]:
    """(a) vary rr for dR in {5, 15}; (b) vary dR at rr=500; (c) vary K or nh."""
    grid = [
        (f"rr={rr},dR={d_r}", rr * _SWEEP_NR, d_r, size, seed)
        for rr in (50, 500)
        for d_r in (5, 15)
    ]
    grid += [(f"dR={d_r}", _SWEEP_NS, d_r, size, seed + 1) for d_r in (5, 15, 30)]
    grid += [(f"{size_name}={m}", _SWEEP_NS, 15, m, seed + 2) for m in sizes]
    return [
        Config(DatasetSpec(name, n_s, 5, (_SWEEP_NR,), (d_r,), target=target, seed=sd), m)
        for name, n_s, d_r, m, sd in grid
    ]


def _multiway_sweep(
    seed: int, size_name: str, size: int, sizes: tuple, target: bool
) -> list[Config]:
    """q=2: (a) vary rr; (b) vary dR1; (c) vary K or nh."""
    grid = [(f"3way rr={rr}", rr * _SWEEP_NR, 15, size, seed) for rr in (100, 500)]
    grid += [(f"3way dR1={d_r1}", _SWEEP_NS, d_r1, size, seed + 1) for d_r1 in (5, 30)]
    grid += [(f"3way {size_name}={m}", _SWEEP_NS, 15, m, seed + 2) for m in sizes]
    return [
        Config(
            DatasetSpec(name, n_s, 2, (_SWEEP_NR, 100), (d_r1, 8), target=target, seed=sd), m
        )
        for name, n_s, d_r1, m, sd in grid
    ]


FIG3 = _binary_sweep(21, "K", 5, (2, 8), target=False)
FIG4 = _multiway_sweep(31, "K", 5, (2, 8), target=False)
FIG5 = _binary_sweep(41, "nh", 50, (25, 100), target=True)
FIG6 = _multiway_sweep(51, "nh", 50, (25, 100), target=True)


def _rows(spark: SparkSession, model: str, configs: list[Config], iters: int) -> list[Row]:
    rows: list[Row] = []
    for cfg in configs:
        s_pdf, r_pdfs = cfg.generate_pdf()
        rows += run_matrix(spark, model, cfg.name, s_pdf, r_pdfs, size=cfg.size, iters=iters)
    return rows


def table6_rows(spark: SparkSession) -> list[Row]:
    """Table VI: GMM on the simulated real datasets (K=5)."""
    return _rows(spark, "GMM", TABLE6, TABLE_ITERS)


def table7_rows(spark: SparkSession) -> list[Row]:
    """Table VII: NN on the simulated sparse datasets (nh=50, sigmoid)."""
    return _rows(spark, "NN", TABLE7, TABLE_ITERS)


def fig3_rows(spark: SparkSession) -> list[Row]:
    """Fig. 3: GMM binary-join sweeps — vary rr, vary dR, vary K."""
    return _rows(spark, "GMM", FIG3, SWEEP_ITERS)


def fig4_rows(spark: SparkSession) -> list[Row]:
    """Fig. 4: GMM multi-way (q=2) sweeps — vary rr, vary dR1, vary K."""
    return _rows(spark, "GMM", FIG4, SWEEP_ITERS)


def fig5_rows(spark: SparkSession) -> list[Row]:
    """Fig. 5: NN binary-join sweeps — vary rr, vary dR, vary nh."""
    return _rows(spark, "NN", FIG5, SWEEP_ITERS)


def fig6_rows(spark: SparkSession) -> list[Row]:
    """Fig. 6: NN multi-way (q=2) sweeps — vary rr, vary dR1, vary nh."""
    return _rows(spark, "NN", FIG6, SWEEP_ITERS)
