"""SparkSession factory shared by the jobs and the pytest ``spark`` fixture.

One recipe (shuffle partitions, Arrow, broadcast joins disabled), so job runs
and test runs exercise identical plans. Broadcast joins are off so that joins
take the shuffle path even at small scale; a query that wants one sets the
threshold back. Under spark-submit the master and JVM memory come from the
submit command; run standalone, the session falls back to ``local[*]``.
"""
from __future__ import annotations

import os

from pyspark.sql import SparkSession


def get_spark(app_name: str = "repro-job") -> SparkSession:
    return (
        SparkSession.builder.appName(app_name)
        .master(os.environ.get("SPARK_MASTER", "local[*]"))
        .config(
            "spark.sql.shuffle.partitions",
            os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"),
        )
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )
