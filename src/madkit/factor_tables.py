"""Built-in bias-correction factor tables and related constants.

The C_n tables were estimated by large-scale Monte-Carlo simulation
(inverting the mean MAD of standard-normal samples) and are published,
at four decimal places, as ``data/factor_tables.csv``: the single source
of the tables, read once at import into ``TABLES``.  Column ``c_<name>``
is the table ``<name>``, an underscore read as a hyphen (``c_thd_sqrt`` is
``thd-sqrt``).  Keys are sample sizes; coverage is every n in 2..100 plus
a sparse grid of larger sizes.  Park's table stops at n = 500, so its
cells beyond that are blank.
"""
import csv
from importlib import resources

CSV_PATH = resources.files("madkit").joinpath("data/factor_tables.csv")


def _read_tables() -> dict[str, dict[int, float]]:
    with CSV_PATH.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    return {
        column.removeprefix("c_").replace("_", "-"):
            {int(row["n"]): float(row[column]) for row in rows if row[column]}
        for column in reader.fieldnames if column.startswith("c_")
    }


# Table name -> {n: C_n}, in the CSV's column order: sm, hd, thd-sqrt, park.
TABLES = _read_tables()


# Historical b_n multipliers for the sample-median MAD (C_n = b_n / qnorm(0.75)).
CROUX_BN = {2: 1.196, 3: 1.495, 4: 1.363, 5: 1.206, 6: 1.200, 7: 1.140, 8: 1.129, 9: 1.107}
WILLIAMS_BN = {2: 1.197, 3: 1.490, 4: 1.360, 5: 1.217, 6: 1.189, 7: 1.138, 8: 1.127, 9: 1.101}

# Hayes-style large-n coefficients: C_n = 1 / (qnorm(0.75) * (1 - alpha/n - beta/n^2)),
# parity-dependent, valid for n >= 9.
HAYES_ODD = (0.7635, 0.565)
HAYES_EVEN = (0.7612, 1.123)

# Park's large-n form for n > 100: C_n = 1 / (qnorm(0.75) * (1 + A_n)) with
# A_n = -0.76213/n - 0.86413/n^2.
PARK_AN_HAYES = (-0.76213, -0.86413)

# Coefficients of A_n = alpha/n + beta/n^2 used by the default model for
# n > 100.  They are not the least-squares fit of the table rows with
# 100 < n <= 500 (``madkit fit --estimator sm`` gives (-0.7694, -1.7961)),
# but like it they lie within 1e-4 of every one of those rows.
FITTED_COEFFS = {
    "sm": (-0.7668, -2.1897),
    "hd": (-0.4912, -7.6350),
    "thd-sqrt": (-0.6954, -4.9261),
}
