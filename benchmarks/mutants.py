"""Mutant catalogue: measure whether the differential tests still bite.

``benchmarks/mutants.json`` lists hand-written mutants of ``src/``, one
exact-string replacement each, with the test node IDs expected to kill it.
For every mutant this runner copies ``src/`` to a temporary directory,
applies the replacement there, and runs the mutant's tests against the copy
with ``pytest -x`` under a per-mutant timeout (``TIMEOUT``).  pytest runs in
that directory, so a falsifying example hypothesis saves against a mutant
stays there and the checkout is left as it was.  A failing test run kills
the mutant, and so does a timeout (a mutant that loops forever is detected
too); a passing run means it survived.

An entry whose ``old`` string does not occur exactly once in its file is
refused before anything runs: the catalogue has drifted from the code.
Entries marked ``equivalent`` compute the same results as the code (the
entry says why); they are validated but not run.  An entry with
``min_python`` runs only on that Python or newer (for example builtin
``sum`` replacing ``left_sum``: builtin ``sum`` compensates rounding only
from 3.12 on) and is reported as skipped elsewhere.

Run from the repository root::

    python benchmarks/mutants.py

Exit status: 0 when every non-equivalent mutant that applies is killed, 1
when one survives, 2 when the catalogue is invalid.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CATALOGUE = Path(__file__).resolve().parent / "mutants.json"
#: Seconds one mutant's test run may take before it counts as killed.
TIMEOUT = 600.0


class CatalogueError(ValueError):
    """The catalogue does not describe the code any more."""


def load(path: Path = CATALOGUE) -> list[dict]:
    """The catalogue's entries, each checked against the code it mutates."""
    entries = json.loads(path.read_text())
    names = set()
    for entry in entries:
        for key in ("name", "file", "old", "new", "tests"):
            if key not in entry:
                raise CatalogueError(f"{entry.get('name', entry)!r}: no {key!r}")
        if entry["name"] in names:
            raise CatalogueError(f"{entry['name']!r}: duplicate name")
        names.add(entry["name"])
        if not entry["file"].startswith("src/"):
            raise CatalogueError(f"{entry['name']!r}: mutates outside src/")
        occurrences = (ROOT / entry["file"]).read_text().count(entry["old"])
        if occurrences != 1:
            raise CatalogueError(
                f"{entry['name']!r}: old string occurs {occurrences} times "
                f"in {entry['file']}, not once"
            )
        if not entry["tests"] and not entry.get("equivalent"):
            raise CatalogueError(f"{entry['name']!r}: no test is expected to kill it")
    return entries


def _applies(entry: dict) -> bool:
    wanted = entry.get("min_python")
    if wanted is None:
        return True
    return sys.version_info[:2] >= tuple(int(part) for part in wanted.split("."))


def run_mutant(entry: dict, timeout: float = TIMEOUT) -> tuple[str, float, str]:
    """``(outcome, seconds, killer)``: ``killed`` (by the ``killer`` test)
    or ``survived``."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(
            ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info")
        )
        target = Path(tmp) / entry["file"]
        target.write_text(target.read_text().replace(entry["old"], entry["new"]))
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        # Run from the temporary directory so that nothing the run writes
        # relative to its working directory (hypothesis' example database)
        # lands in the checkout.
        command = [
            sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            f"--rootdir={ROOT}", *(str(ROOT / test) for test in entry["tests"]),
        ]
        start = time.perf_counter()
        try:
            done = subprocess.run(
                command, cwd=tmp, env=env, timeout=timeout,
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            )
        except subprocess.TimeoutExpired:
            return "killed", time.perf_counter() - start, f"timeout after {timeout:g}s"
        seconds = time.perf_counter() - start
        # pytest reports failures relative to its working directory.
        checkout = os.path.relpath(ROOT, tmp) + os.sep
    # 1: a test failed.  2-5 (interrupted, internal or usage error, nothing
    # collected) mean the run measured nothing.
    if done.returncode == 0:
        return "survived", seconds, ""
    if done.returncode == 1:
        failed = [
            line.split()[1].removeprefix(checkout)
            for line in done.stdout.splitlines()
            if line.startswith("FAILED ")
        ]
        return "killed", seconds, failed[0] if failed else ""
    raise CatalogueError(
        f"{entry['name']!r}: pytest exited {done.returncode}:\n{done.stdout[-2000:]}"
    )


def main() -> int:
    try:
        entries = load()
        results = []
        for entry in entries:
            killer = ""
            if entry.get("equivalent"):
                outcome, seconds = "equivalent", 0.0
            elif not _applies(entry):
                outcome, seconds = f"skipped (needs Python {entry['min_python']}+)", 0.0
            else:
                outcome, seconds, killer = run_mutant(entry)
            results.append((entry["name"], outcome))
            print(f"{outcome:<28} {seconds:7.1f}s  {entry['name']}  {killer}".rstrip(), flush=True)
    except CatalogueError as error:
        print(f"mutants: {error}", file=sys.stderr)
        return 2
    survivors = [name for name, outcome in results if outcome == "survived"]
    killed = sum(outcome == "killed" for _, outcome in results)
    print(f"{killed} killed, {len(survivors)} survived of {len(results)} mutants")
    if survivors:
        print(f"FAIL: surviving mutants: {', '.join(survivors)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
