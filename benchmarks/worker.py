"""One measured pass of a workload in a fresh interpreter.

Started by run.py as ``python3 -I worker.py <root> <mode> <workload> <inputs.json>``.
It imports ``triads.cli`` (the package and its command line) before
anything else and then writes ``ready`` to stdout, which is where the
harness stops its set-up clock.  The last
stdout line is the pass's result as JSON.

Modes:
  setup    exit right after the import (a set-up probe)
  plain    time one pass with nothing attached
  profile  the same pass under cProfile; per-layer metrics come from it
  count    the same pass with counting wrappers installed
"""

import sys

ROOT = sys.argv[1]
sys.path[:0] = [ROOT + "/src", ROOT + "/benchmarks"]

import triads.cli  # noqa: E402  (the set-up clock covers interpreter start to here)

sys.stdout.write("ready\n")
sys.stdout.flush()

import cProfile  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import pstats  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from spec import LAYERS, SUITES  # noqa: E402
from triads import cli, families, genfun, konvalina, operators, poly, psi, scalar, suites, triad  # noqa: E402


def _code_key(fn) -> tuple[str, int, str]:
    code = fn.__code__
    return code.co_filename, code.co_firstlineno, code.co_name


# Named entries of the per-layer breakdown: metric prefix -> functions.
FUNCTIONS = {
    "scalar.qpoly_mul": (scalar.QPoly.__mul__,),
    "scalar.qpoly_add": (scalar.QPoly.__add__, scalar.QPoly.__sub__, scalar.QPoly.__neg__),
    "scalar.qpoly_divmod": (scalar.QPoly.__divmod__,),
    "scalar.gcd": (scalar.QPoly.gcd,),
    "scalar.scalar_ops": (
        scalar.Scalar.__add__,
        scalar.Scalar.__sub__,
        scalar.Scalar.__rsub__,
        scalar.Scalar.__mul__,
        scalar.Scalar.__truediv__,
        scalar.Scalar.__rtruediv__,
    ),
    "scalar.parse": (scalar.parse_scalar,),
    "scalar.format": (scalar.Scalar.__str__,),
    "poly.scale": (poly.Poly.scale,),
    "poly.add": (poly.Poly.__add__,),
    "triad.coefficient_table": (triad.coefficient_table,),
    "triad.dual_polynomials": (triad.dual_polynomials,),
    "triad.verify_connection": (triad.verify_connection,),
    "konvalina.recurrence": (konvalina.first_kind, konvalina.second_kind),
    "konvalina.oracle": (konvalina.first_kind_oracle, konvalina.second_kind_oracle),
    "operators.qhat": (operators.qhat,),
    "operators.konkwa": (operators._konkwa,),
    "psi.n_psi": (psi.n_psi,),
    "genfun.recip": (genfun.Series.recip,),
    "genfun.series_mul": (genfun.Series.__mul__,),
    "families.family_value": (families.family_value,),
    "cli.main": (cli.main,),
    **{f"suites.{name}": (getattr(suites, "suite_" + name.replace("-", "_")),) for name in SUITES},
}
_PACKAGE_DIR = str(Path(triads.__file__).parent)


def _layer(key: tuple[str, int, str]) -> str | None:
    filename = key[0]
    if filename.endswith("/fractions.py"):
        return "scalar"  # the scalar layer's rational arithmetic
    path = Path(filename)
    if str(path.parent) == _PACKAGE_DIR and path.stem in LAYERS:
        return path.stem
    return None


def layer_metrics(stats: dict) -> dict:
    """Per-layer self time and named-function calls/times from cProfile stats.

    Self time of code outside every layer (builtins such as ``len``, other
    standard modules) is charged along its caller edges to the calling layer.
    """
    self_s = dict.fromkeys(LAYERS, 0.0)
    total = 0.0
    for key, (_, _, tottime, _, callers) in stats.items():
        total += tottime
        layer = _layer(key)
        if layer is not None:
            self_s[layer] += tottime
            continue
        for caller, edge in callers.items():
            caller_layer = _layer(caller)
            if caller_layer is not None:
                self_s[caller_layer] += edge[2]
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer]
        metrics[f"{layer}.self_share"] = self_s[layer] / total if total else 0.0
    for prefix, functions in FUNCTIONS.items():
        rows = [stats.get(_code_key(fn), (0, 0, 0.0, 0.0, {})) for fn in functions]
        metrics[f"{prefix}.calls"] = sum(row[1] for row in rows)
        metrics[f"{prefix}.self_s"] = sum(row[2] for row in rows)
        metrics[f"{prefix}.cum_s"] = sum(row[3] for row in rows)
    return metrics


class Counter:
    """Counting wrappers around public callables, installed for one pass."""

    def __init__(self):
        self.coeff_products = 0
        self.max_degree = 0
        self.recurrence_keys: list = []
        self.qhat_keys: list = []

    def install(self) -> None:
        mul = scalar.QPoly.__mul__

        def counted_mul(a, b):
            out = mul(a, b)
            # schoolbook operation count: nonzero(a) * nonzero(b)
            self.coeff_products += (len(a.coeffs) - a.coeffs.count(0)) * (len(b.coeffs) - b.coeffs.count(0))
            self.max_degree = max(self.max_degree, len(out.coeffs) - 1)
            return out

        scalar.QPoly.__mul__ = counted_mul

        def keyed(fn, keys, key_of):
            def wrapper(*args, **kwargs):
                keys.append(key_of(*args, **kwargs))
                return fn(*args, **kwargs)

            return wrapper

        def weights_key(w, k):
            return w.weights, k

        def qhat_key(psi, depth):
            return psi.name, depth

        for fn in (konvalina.first_kind, konvalina.second_kind):
            self._rebind(fn, keyed(fn, self.recurrence_keys, weights_key))
        self._rebind(operators.qhat, keyed(operators.qhat, self.qhat_keys, qhat_key))

    @staticmethod
    def _rebind(original, wrapper) -> None:
        # every triads module that imported the name holds its own binding
        for name, module in list(sys.modules.items()):
            if name == "triads" or name.startswith("triads."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def metrics(self) -> dict:
        def ratio(keys):
            return len(set(keys)) / len(keys) if keys else 0.0

        return {
            "scalar.qpoly_mul.coeff_products": self.coeff_products,
            "scalar.qpoly_mul.max_degree": self.max_degree,
            "konvalina.recurrence.distinct_ratio": ratio(self.recurrence_keys),
            "operators.qhat.distinct_ratio": ratio(self.qhat_keys),
        }


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(mode: str, workload: str, inputs_path: str) -> dict:
    if mode == "setup":
        return {}
    inputs = json.loads(Path(inputs_path).read_text())
    profiler = cProfile.Profile() if mode == "profile" else None
    counter = Counter() if mode == "count" else None
    if counter is not None:
        counter.install()

    cpu0, wall0 = _cpu_s(), time.perf_counter()
    if profiler is not None:
        profiler.enable()
    outputs = workloads.run(workload, inputs)
    if profiler is not None:
        profiler.disable()
    wall, cpu = time.perf_counter() - wall0, _cpu_s() - cpu0
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    checks = workloads.check(workload, inputs, outputs)
    stdout = outputs["stdout"].encode()
    result = {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mib": peak_rss_mib,
        "attempted": len(checks),
        "failed": [name for name, ok in checks if not ok],
        "stdout_sha256": hashlib.sha256(stdout).hexdigest(),
        "stdout_bytes": len(stdout),
    }
    if profiler is not None:
        profiler.dump_stats(str(Path(inputs_path).with_name("profile.pstats")))
        result["layers"] = layer_metrics(pstats.Stats(profiler).stats)
    if counter is not None:
        result["counts"] = counter.metrics()
    return result


if __name__ == "__main__":
    print(json.dumps(main(*sys.argv[2:5])))
