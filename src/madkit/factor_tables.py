"""Built-in bias-correction factor tables and related constants.

The C_n tables were estimated by large-scale Monte-Carlo simulation
(inverting the mean MAD of standard-normal samples) and are published,
at four decimal places, as ``data/factor_tables.csv``: the single source
of the tables, read once at import.  Keys are sample sizes; coverage is
every n in 2..100 plus a sparse grid of larger sizes.  Park's table stops
at n = 500, so its cells beyond that are blank.
"""
import csv
from importlib import resources

CSV_PATH = resources.files("madkit").joinpath("data/factor_tables.csv")


def _read_tables():
    with CSV_PATH.open("r", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [
        {int(row["n"]): float(row[column]) for row in rows if row[column]}
        for column in ("c_sm", "c_hd", "c_thd_sqrt", "c_park")
    ]


SM_FACTORS, HD_FACTORS, THD_SQRT_FACTORS, PARK_FACTORS = _read_tables()


# Historical b_n multipliers for the sample-median MAD (C_n = b_n / qnorm(0.75)).
CROUX_BN = {2: 1.196, 3: 1.495, 4: 1.363, 5: 1.206, 6: 1.200, 7: 1.140, 8: 1.129, 9: 1.107}
WILLIAMS_BN = {2: 1.197, 3: 1.490, 4: 1.360, 5: 1.217, 6: 1.189, 7: 1.138, 8: 1.127, 9: 1.101}

# Hayes-style large-n coefficients: C_n = 1 / (qnorm(0.75) * (1 - alpha/n - beta/n^2)),
# parity-dependent, valid for n >= 9.
HAYES_ODD = (0.7635, 0.565)
HAYES_EVEN = (0.7612, 1.123)

# Park large-n forms for n > 100: C_n = 1 / (qnorm(0.75) * (1 + A_n)) with either
# A_n = -0.76213/n - 0.86413/n^2 or A_n = -0.804168866 * n^(-1.008922).
PARK_AN_HAYES = (-0.76213, -0.86413)
PARK_AN_WILLIAMS = (-0.804168866, 1.008922)

# Least-squares coefficients of A_n = alpha/n + beta/n^2 fitted on the table
# rows with 100 < n <= 500; used by the default model for n > 100.
FITTED_COEFFS = {
    "sm": (-0.7668, -2.1897),
    "hd": (-0.4912, -7.6350),
    "thd-sqrt": (-0.6954, -4.9261),
    "park": (-0.7591, -1.3239),
}
