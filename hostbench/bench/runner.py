"""One benchmark run: generate inputs, measure, check, stamp, report."""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

from . import ledger, measure
from .catalog import END_TO_END, PER_LAYER
from .hostspeed import HostSpeed, Reference
from .inputs import GENERATORS
from .trace import Tracer

#: The program's default chunk length, which every workload runs at.
CHUNK_LENGTH = 1 << 20
#: Reference samples a traced run takes for ``host.reference_ms``.
REFERENCE_SAMPLES = 5


def _workload(name: str):
    if name in ("cold-sparse", "cold-repeats"):
        from .cold import ColdSearch

        return ColdSearch
    if name == "design-panel":
        from .design import DesignPanel

        return DesignPanel
    from .warm import WarmRouted

    return WarmRouted


def run(args: argparse.Namespace, root: Path) -> int:
    state = root / ".hostbench"
    workdir = state / "work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(workdir)
    tracer = Tracer()
    try:
        generated = time.perf_counter()
        inputs = GENERATORS[args.workload](args.seed, args.scale, workdir)
        input_sha = inputs.digest
        generated = time.perf_counter() - generated
        workload = _workload(args.workload)(inputs, root, workdir, args.inject_wrong)
        with Reference() as reference:
            if args.trace:
                speed = HostSpeed(reference)
                for _ in range(REFERENCE_SAMPLES):
                    speed.sample()
                outcome = workload.trace(args.seconds, tracer)
                outcome.metrics["host.reference_ms"] = measure.median(speed.samples) * 1e3
            else:
                outcome = workload.measure(args.seconds, reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    catalogue = PER_LAYER if args.trace else END_TO_END
    values = {name: 0.0 for name in catalogue}
    values.update({k: v for k, v in outcome.metrics.items() if k in catalogue})
    if args.trace:
        values["error_rate"] = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    correct = outcome.failed == 0 and not outcome.problems and outcome.attempted > 0
    metrics = {
        name: {"value": float(values[name]), "unit": catalogue[name]} for name in catalogue
    }
    params = {**inputs.params, **outcome.params, "scale": args.scale}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {
        "ledger": ledger.stamp(
            root,
            workload=args.workload,
            seed=args.seed,
            seconds=args.seconds,
            trace=args.trace,
            chunk_length=CHUNK_LENGTH,
            params=params,
            input_sha256=input_sha,
        ),
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
        "output_sha256": outcome.digests,
        "problems": outcome.problems,
        "raw": outcome.raw,
        "generate_seconds": generated,
    }
    path = ledger.write_result(state / "results" / f"{tag}.json", result)
    ledger.load_result(path)
    if args.trace:
        tracer.dump(state / "spans" / f"{tag}.json")
    _report(result, tag, path)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def _report(result: dict, tag: str, path: Path) -> None:
    """Human-readable lines ahead of the final JSON line."""
    stamp = result["ledger"]
    print(
        f"# {tag}: git {stamp['git_sha'][:12]} src {stamp['source_sha256'][:12]} "
        f"nproc {stamp['nproc']} python {stamp['python']} numpy {stamp['numpy']} "
        f"chunk {stamp['chunk_length']} inputs {stamp['input_sha256'][:12]}"
    )
    print(f"# params: {json.dumps(stamp['params'], sort_keys=True)}")
    measured = result["raw"].get("measured", {})
    for name, metric in result["metrics"].items():
        line = f"# {name} = {metric['value']:.6g} {metric['unit']}"
        if name in measured:
            line += f" at reference speed ({measured[name]:.6g} as measured)"
        print(line)
    for problem in result["problems"]:
        print(f"# WRONG: {problem}")
    print(
        f"# {result['attempted']} attempted, {result['failed']} failed; "
        f"result written to {path.name}"
    )
    sys.stdout.flush()
