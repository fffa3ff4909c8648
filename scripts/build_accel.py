#!/usr/bin/env python3
"""Build the compiled hot core (``repro.accel._hotcore``) in-tree.

The compiled backend is a single-file CPython extension with no
dependencies beyond a C compiler and the Python headers, so the build
is one compiler invocation — no setuptools build isolation, no wheel,
no network.  The extension lands next to its source under
``src/repro/accel/`` where the selection layer picks it up on import.

Usage::

    python scripts/build_accel.py            # build (no-op if fresh)
    python scripts/build_accel.py --force    # rebuild unconditionally
    python scripts/build_accel.py --check    # report build status, don't build

Exit status is 0 when the extension is present and importable
afterwards, 1 otherwise — ``--check`` makes this scriptable for CI
gating (the pure-Python backend never needs this to run).
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SOURCE = REPO / "src" / "repro" / "accel" / "_hotcore.c"

CFLAGS = ["-O2", "-fPIC", "-shared", "-Wall", "-Wextra", "-Wno-unused-parameter"]


def target_path() -> Path:
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    return SOURCE.with_name("_hotcore" + suffix)


def find_compiler() -> str | None:
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            return cand
    return None


def verify_import() -> bool:
    """Import the freshly built extension in a clean child interpreter."""
    code = (
        "import sys; sys.path.insert(0, r'%s'); "
        "import repro.accel as a; "
        "sys.exit(0 if a.compiled_available() else 1)" % (REPO / "src")
    )
    return subprocess.run([sys.executable, "-c", code]).returncode == 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--force", action="store_true", help="rebuild even if up to date"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="only report whether the extension is built and importable",
    )
    args = parser.parse_args(argv)

    target = target_path()
    if args.check:
        if target.exists() and verify_import():
            print(f"built: {target.relative_to(REPO)}")
            return 0
        print("compiled backend not built (pure Python remains available)")
        return 1

    if (
        not args.force
        and target.exists()
        and target.stat().st_mtime >= SOURCE.stat().st_mtime
    ):
        print(f"up to date: {target.relative_to(REPO)}")
        return 0

    cc = find_compiler()
    if cc is None:
        print("no C compiler found (set CC); pure Python backend unaffected")
        return 1
    include = sysconfig.get_paths()["include"]
    cmd = [cc, *CFLAGS, f"-I{include}", str(SOURCE), "-o", str(target)]
    print(" ".join(cmd))
    proc = subprocess.run(cmd)
    if proc.returncode != 0:
        print("build failed; pure Python backend unaffected")
        return 1
    if not verify_import():
        print("extension built but failed to import; removing it")
        target.unlink(missing_ok=True)
        return 1
    print(f"built: {target.relative_to(REPO)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
