"""What the benchmark measures: its workloads, metrics and regression bounds.

``BENCHMARK.json`` at the repository root is written from this module by
``python3 benchmarks/run.py --write-spec``; the smoke test fails when the
two disagree, so the metric names live in one place.
"""

from __future__ import annotations

RUN_SECONDS = 30

WORKLOADS = {
    "gate": "the CI gate 'verify --suite all': millions of degree-0 Scalar ops, rational-function gcd/divmod, repeated qhat and recurrence calls",
    "deep-triad": "verify_connection and verify_degrees at depth 26 on gauss and a seeded d != 0 spec: few dense q-polynomial products of degree up to ~325",
    "table-roundtrip": "'table --spec' JSON of a seeded spec parsed back cell by cell: text formatting, parsing and sparse-monomial products",
}

# (name, unit, bound): the share of the parent's median by which the metric
# may worsen.  On the shared 2-core machine the benchmark was sized on, the
# speed of a fixed loop switched between two levels ~40% apart in phases of
# seconds, so run medians of the times spread by up to ~15% between seeds
# and the time bounds are wide.  RSS barely moves, so its bound is tight.
END_TO_END = (
    ("wall_s", "s", 0.25),
    ("cpu_s", "s", 0.25),
    ("setup_s", "s", 0.25),
    ("peak_rss_mib", "MiB", 0.1),
)

LAYERS = (
    "scalar",
    "poly",
    "triad",
    "konvalina",
    "families",
    "psi",
    "psi_extensions",
    "operators",
    "genfun",
    "suites",
    "cli",
)

SUITES = ("triad", "konvalina-oracle", "propositions", "corollary", "families", "operator", "genfun")

# (name, unit, better)
PER_LAYER = (
    *((f"{layer}.self_s", "s", "lower") for layer in LAYERS),
    *((f"{layer}.self_share", "ratio", "lower") for layer in LAYERS),
    ("scalar.qpoly_mul.calls", "count", "lower"),
    ("scalar.qpoly_mul.self_s", "s", "lower"),
    ("scalar.qpoly_mul.coeff_products", "count", "lower"),
    ("scalar.qpoly_mul.max_degree", "degree", "lower"),
    ("scalar.qpoly_add.calls", "count", "lower"),
    ("scalar.qpoly_add.self_s", "s", "lower"),
    ("scalar.qpoly_divmod.calls", "count", "lower"),
    ("scalar.qpoly_divmod.self_s", "s", "lower"),
    ("scalar.gcd.calls", "count", "lower"),
    ("scalar.gcd.self_s", "s", "lower"),
    ("scalar.scalar_ops.calls", "count", "lower"),
    ("scalar.scalar_ops.self_s", "s", "lower"),
    ("scalar.parse.calls", "count", "lower"),
    ("scalar.parse.cum_s", "s", "lower"),
    ("scalar.format.calls", "count", "lower"),
    ("scalar.format.cum_s", "s", "lower"),
    ("poly.scale.calls", "count", "lower"),
    ("poly.add.calls", "count", "lower"),
    ("triad.coefficient_table.cum_s", "s", "lower"),
    ("triad.dual_polynomials.cum_s", "s", "lower"),
    ("triad.verify_connection.cum_s", "s", "lower"),
    ("konvalina.recurrence.calls", "count", "lower"),
    ("konvalina.recurrence.distinct_ratio", "ratio", "higher"),
    ("konvalina.oracle.cum_s", "s", "lower"),
    ("operators.qhat.calls", "count", "lower"),
    ("operators.qhat.distinct_ratio", "ratio", "higher"),
    ("operators.konkwa.cum_s", "s", "lower"),
    ("psi.n_psi.calls", "count", "lower"),
    ("genfun.recip.cum_s", "s", "lower"),
    ("genfun.series_mul.calls", "count", "lower"),
    ("families.family_value.calls", "count", "lower"),
    *((f"suites.{suite}.cum_s", "s", "lower") for suite in SUITES),
    ("cli.main.cum_s", "s", "lower"),
    ("cli.stdout_bytes", "bytes", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def benchmark_json() -> dict:
    """The content of BENCHMARK.json."""
    return {
        "command": ["python3", "benchmarks/run.py"],
        "paths": ["benchmarks"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": "lower", "bound": bound} for name, unit, bound in END_TO_END
        ],
        "per_layer": [{"name": name, "unit": unit, "better": better} for name, unit, better in PER_LAYER],
    }
