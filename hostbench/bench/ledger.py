"""Result files: every measurement stamped with where it came from.

A result is only evidence together with its provenance: the source it
measured (git SHA when the checkout is a git work tree, and always a
digest of ``src/``), the host's core count, the Python and numpy
versions, the chunk length, the seed, the workload parameters and the
digest of the generated inputs. :func:`load_result` is the reader; it
rejects a result that lacks any of them.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
from pathlib import Path

import numpy as np

LEDGER_FIELDS = (
    "git_sha",
    "source_sha256",
    "nproc",
    "python",
    "numpy",
    "chunk_length",
    "workload",
    "seed",
    "seconds",
    "trace",
    "params",
    "input_sha256",
)
RESULT_FIELDS = ("ledger", "correct", "attempted", "failed", "metrics")


class LedgerError(ValueError):
    """A result file that cannot be trusted as evidence."""


def git_sha(root: Path) -> str:
    """HEAD's SHA, or ``"none"`` unless *root* is a git work tree's top."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=root,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.resolve().parent)},
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "none"
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]) != root.resolve():
        return "none"
    return lines[1]


def source_digest(root: Path) -> str:
    """sha256 over every ``.py`` file under ``src/``, path and content."""
    digest = hashlib.sha256()
    source = root / "src"
    for path in sorted(source.rglob("*.py")):
        digest.update(str(path.relative_to(source)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def stamp(root: Path, *, workload: str, seed: int, seconds: float, trace: int,
          chunk_length: int, params: dict, input_sha256: str) -> dict:
    return {
        "git_sha": git_sha(root),
        "source_sha256": source_digest(root),
        "nproc": os.cpu_count() or 0,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "chunk_length": chunk_length,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "params": params,
        "input_sha256": input_sha256,
    }


def validate(result: dict) -> dict:
    missing = [name for name in RESULT_FIELDS if name not in result]
    if missing:
        raise LedgerError(f"result lacks {', '.join(missing)}")
    ledger = result["ledger"]
    if not isinstance(ledger, dict):
        raise LedgerError("result ledger is not an object")
    missing = [name for name in LEDGER_FIELDS if ledger.get(name) in (None, "")]
    if missing:
        raise LedgerError(f"result ledger lacks {', '.join(missing)}")
    if not isinstance(ledger["params"], dict) or not ledger["params"]:
        raise LedgerError("result ledger has no workload parameters")
    return result


def write_result(path: Path, result: dict) -> Path:
    validate(result)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=1, sort_keys=True), encoding="ascii")
    return path


def load_result(path: Path) -> dict:
    """Read a result file back, refusing one without its provenance."""
    try:
        result = json.loads(Path(path).read_text(encoding="ascii"))
    except (OSError, ValueError) as error:
        raise LedgerError(f"unreadable result {path}: {error}") from error
    if not isinstance(result, dict):
        raise LedgerError(f"result {path} is not an object")
    return validate(result)
