"""Simulated stand-ins for the paper's real datasets (Tables IV and V).

The paper evaluates on Expedia / Walmart / Movies joins from the Hamlet
project plus augmented Expedia variants and a 3-way Movies join. Those exact
datasets are not available offline, so each is simulated with a synthetic
dataset matching the published ``(nS, dS, nR, dR)`` **exactly in the feature
dimensions** and with row counts scaled down by ``ROW_SCALE`` (the tuple ratio
``rr = nS/nR`` — the quantity that drives the algorithms' relative cost — is
preserved because both row counts scale together). See DESIGN.md Section 5 for
why this substitution preserves the evaluated behaviour.

``Movies-3way`` follows the paper's construction (Section VII-A): S=ratings
joins R1=users and R2=movies; synthetic tuples are "injected" into R1 --
here R1 is simply generated at its scaled size, and every S tuple draws one
FK per attribute table. The paper does not publish dR1 for the 3-way runs;
we use dR1=29 (users' one-hot-encoded demographic width, documented
assumption).

For the "(Sparse)" NN rows of Table IV the one-hot encoding is applied where
it was applied in the originals: both sides for Walmart (all-categorical
store/indicator attributes), only the R side for Movies (S carries just the
rating value, dS=1).
"""
from __future__ import annotations

from dataclasses import dataclass

import pandas as pd

from repro.data import normalized

ROW_SCALE = 0.1  # row counts at 1/10 of Table IV/V; dims exact


@dataclass(frozen=True)
class DatasetSpec:
    """One evaluation dataset: paper dims + generation flags."""

    name: str
    n_s: int  # paper's row counts (pre-scaling)
    d_s: int
    n_rs: tuple  # one entry per attribute table
    d_rs: tuple
    sparse_s: bool = False  # one-hot S features (Table IV "Sparse" rows)
    sparse_r: bool = False  # one-hot R features
    target: bool = False  # generate y (NN datasets)
    seed: int = 7

    @property
    def q(self) -> int:
        return len(self.n_rs)

    def scaled(self, scale: float = ROW_SCALE) -> dict:
        """Generator kwargs with row counts scaled, dims exact."""
        return dict(
            n_s=max(64, int(self.n_s * scale)),
            n_rs=[max(8, int(n * scale)) for n in self.n_rs],
            d_s=self.d_s,
            d_rs=list(self.d_rs),
            seed=self.seed,
            target=self.target,
            sparse_s=self.sparse_s,
            sparse_r=self.sparse_r,
        )

    def generate_pdf(self, scale: float = ROW_SCALE) -> tuple[pd.DataFrame, list[pd.DataFrame]]:
        return normalized.multiway_relations_pdf(**self.scaled(scale))


# Table IV (Not Sparse -> GMM, Table VI) --------------------------------------
GMM_REAL: dict[str, DatasetSpec] = {
    "Expedia1(Not Sparse)": DatasetSpec("Expedia1(Not Sparse)", 942142, 7, (11938,), (8,)),
    "Expedia2(Not Sparse)": DatasetSpec("Expedia2(Not Sparse)", 942142, 7, (37021,), (14,)),
    "Walmart (Not Sparse)": DatasetSpec("Walmart (Not Sparse)", 421570, 3, (2340,), (9,)),
    "Movies (Not Sparse)": DatasetSpec("Movies (Not Sparse)", 1000209, 1, (3706,), (21,)),
    # Table V (augmented Expedia: high rr, growing dR)
    "Expedia3 (Augmented)": DatasetSpec("Expedia3 (Augmented)", 634133, 7, (2899,), (29,)),
    "Expedia4 (Augmented)": DatasetSpec("Expedia4 (Augmented)", 634133, 7, (2899,), (78,)),
    "Expedia5 (Augmented)": DatasetSpec("Expedia5 (Augmented)", 634133, 7, (2899,), (218,)),
    # 3-way: S=ratings, R1=users (dR1 assumed 29, see module docstring), R2=movies
    "Movies-3way": DatasetSpec("Movies-3way", 1000209, 1, (6040, 3706), (29, 21)),
}

# Table IV (Sparse -> NN, Table VII) ------------------------------------------
NN_REAL: dict[str, DatasetSpec] = {
    "Walmart (Sparse)": DatasetSpec(
        "Walmart (Sparse)", 421570, 126, (2340,), (175,),
        sparse_s=True, sparse_r=True, target=True,
    ),
    "Movies (Sparse)": DatasetSpec(
        "Movies (Sparse)", 1000209, 1, (3706,), (21,),
        sparse_r=True, target=True,
    ),
    "Movies-3way": DatasetSpec(
        "Movies-3way", 1000209, 1, (6040, 3706), (29, 21),
        sparse_r=True, target=True,
    ),
}
