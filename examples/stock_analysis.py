"""Stock scenario: index every stock's highest-price column without the memory bill.

This is the paper's running example (Section 3): the table already has an
index per stock on the daily *lowest* price, and analysts keep asking "during
which time periods did stock X's highest price fall between Y and Z?".
Building one more complete B+-tree per stock doubles the index memory;
Hermit instead models the near-linear low↔high correlation per stock and
routes the queries through the existing indexes, parking shock days (e.g. a
PG&E-style 50% single-day move) in outlier buffers.

Run with::

    python examples/stock_analysis.py
"""

from __future__ import annotations

import numpy as np

from repro import Database, IndexMethod, QueryRequest
from repro.bench.report import format_table
from repro.correlation.discovery import pearson_coefficient
from repro.storage.memory import BYTES_PER_MB
from repro.workloads.stock import (
    dow_sp_series,
    generate_stock,
    high_column,
    load_stock,
    low_column,
)

NUM_STOCKS = 20
NUM_DAYS = 5_000


def main() -> None:
    print(f"Generating {NUM_STOCKS} stocks x {NUM_DAYS} trading days...")
    dataset = generate_stock(num_stocks=NUM_STOCKS, num_days=NUM_DAYS)
    database = Database()
    table_name = load_stock(database, dataset)

    print("Indexing every highest-price column with method=AUTO ...")
    hermit_count = 0
    for stock in range(NUM_STOCKS):
        entry = database.create_index(f"idx_{high_column(stock)}", table_name,
                                      high_column(stock),
                                      method=IndexMethod.AUTO)
        if entry.method is IndexMethod.HERMIT:
            hermit_count += 1
    print(f"  {hermit_count}/{NUM_STOCKS} columns were served by Hermit indexes")

    report = database.memory_report(table_name)
    print(format_table(
        ["component", "MB"],
        [[label, size / BYTES_PER_MB]
         for label, size in sorted(report.components.items())],
    ))

    # Ask the paper's query for a few stocks and verify against a full scan.
    print("\nSample analyst queries (verified against a full scan):")
    rows = []
    for stock in (0, NUM_STOCKS // 2, NUM_STOCKS - 1):
        highs = dataset.columns[high_column(stock)]
        low, high = (float(np.quantile(highs, 0.45)),
                     float(np.quantile(highs, 0.55)))
        result = database.execute(
            QueryRequest.range(table_name, high_column(stock), low, high))
        expected = int(((highs >= low) & (highs <= high)).sum())
        rows.append([high_column(stock), f"[{low:.2f}, {high:.2f}]",
                     len(result), expected,
                     result.breakdown.false_positive_ratio])
        assert len(result) == expected
    print(format_table(["column", "price range", "matches", "expected",
                        "false-positive ratio"], rows))

    # The low/high correlation each Hermit index exploits, plus the famous
    # Dow-Jones vs S&P-500 pair from the paper's appendix (Figure 26).
    lows = dataset.columns[low_column(0)]
    highs = dataset.columns[high_column(0)]
    sp500, dow = dow_sp_series()
    print(f"\nlow_0 vs high_0 Pearson coefficient: "
          f"{pearson_coefficient(lows, highs):.4f}")
    print(f"S&P-500 vs Dow-Jones Pearson coefficient: "
          f"{pearson_coefficient(sp500, dow):.4f}")


if __name__ == "__main__":
    main()
