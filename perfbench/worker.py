"""One benchmark sample in a fresh process.

    python3 perfbench/worker.py '<config json>' <mode>

``mode`` is ``setup`` (import and build the config, then report the
environment), ``run`` (also run the scenario) or ``trace`` (run it with the
layer tracer installed).  The last stdout line is a JSON object holding
``t_built``, the ``time.monotonic()`` reading once the config was built, which
the parent turns into the set-up time by subtracting its spawn time.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
from pathlib import Path


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(raw_config: str, mode: str) -> dict:
    from ionspec2d import cli

    cfg = cli.build_config(json.loads(raw_config))
    result = {"t_built": time.monotonic()}
    if mode == "setup":
        result["environment"] = environment()
        return result
    if mode == "trace":
        import layertrace

        tracer = layertrace.Tracer()
        with tracer.installed():
            start = time.perf_counter()
            manifest = cli.run_scenario(cfg)
            result["run_s"] = time.perf_counter() - start
        result["layers"] = layertrace.layer_metrics(tracer)
    else:
        start = time.perf_counter()
        manifest = cli.run_scenario(cfg)
        result["run_s"] = time.perf_counter() - start
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["outputs"] = manifest["outputs"]
    if mode == "trace":
        tracer.write_spans(Path(cfg.out_dir) / "trace_spans.csv")
    return result


if __name__ == "__main__":
    print(json.dumps(main(*sys.argv[1:])))
