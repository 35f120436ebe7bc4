"""Reproduce the paper's evaluation artifacts: Tables VI/VII and the Fig. 3-6 sweeps.

Usage: spark-submit jobs/run.py ARTIFACT [ARTIFACT ...]  (or plain ``python``),
ARTIFACT being one of table6, table7, fig3, fig4, fig5, fig6. Prints each
artifact's measured M/S/F seconds; Tables VI/VII are followed by the paper's.
"""
import argparse

from repro.bench.harness import format_rows, warmup
from repro.bench.session import get_spark
from repro.bench.tables import ARTIFACTS, rows


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("artifacts", nargs="+", choices=ARTIFACTS)
    names = parser.parse_args(argv).artifacts
    spark = get_spark("-".join(names))
    try:
        warmup(spark)
        for name in names:
            art = ARTIFACTS[name]
            print(format_rows(rows(spark, art), art.title))
            if art.paper:
                print("\nPaper numbers (seconds, authors' testbed):")
                for ds, algs in art.paper.items():
                    print(f"  {ds:24s} " + "  ".join(f"{a}={t}" for a, t in algs.items()))
    finally:
        spark.stop()


if __name__ == "__main__":
    main()
