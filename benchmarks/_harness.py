"""Helpers for the benchmark/experiment harness."""

from __future__ import annotations

import os
import subprocess
from pathlib import Path

import numpy as np

RESULTS_DIR = Path(__file__).parent / "results"
REPO_ROOT = Path(__file__).resolve().parent.parent


def provenance(chunk_length: int) -> str:
    """One header line stamping a host measurement: git SHA (``+dirty``
    when ``src/`` differs from it), core count, numpy, chunk length."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--", "src"],
            cwd=REPO_ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
        sha += "+dirty" if dirty else ""
    except (OSError, subprocess.CalledProcessError):
        sha = "none"
    return (
        f"git {sha}, nproc {os.cpu_count()}, numpy {np.__version__}, "
        f"chunk {chunk_length:,}"
    )


def save_experiment(name: str, text: str) -> None:
    """Print an experiment table and persist it under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n{text}\n")
