#!/usr/bin/env python3
"""Builds and runs the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <paper-suites|linear-decide|serve-mix> \
        --seed N --seconds S --trace <0|1>

Builds the benchmark package (perfbench/Cargo.toml) and the `staub`
binary in release mode, with Cargo's target directory taken from
CARGO_TARGET_DIR (default `.bench_build`), then runs the benchmark. Its
last stdout line is the result object. Run records, determinism records
and traces go under `<target dir>/perfbench/`; determinism records are
kept per hash of the built sources, so only runs of the same code are
compared. Exits non-zero, printing no
result, when the repository's sources are not there to build.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = ("Cargo.toml", "Cargo.lock", "src", "crates")
# Sources whose change can change what a run computes: the program's and
# the benchmark's own.
HASHED = (*SOURCES, "perfbench/Cargo.toml", "perfbench/Cargo.lock", "perfbench/src")


def commit_id():
    """The git commit when the checkout is a repository, else `none`."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            )
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return "none"


def source_hash():
    """A hash of the files that are built, so that runs of different code
    (two commits, or edits not yet committed) are told apart."""
    digest = hashlib.sha256()
    for name in HASHED:
        path = ROOT / name
        files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
        for f in files:
            digest.update(str(f.relative_to(ROOT)).encode())
            digest.update(b"\0")
            digest.update(f.read_bytes())
    return digest.hexdigest()[:16]


def build(target, manifest, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", str(manifest), *extra]
    # Cargo's progress goes to stderr; stdout stays for the result line.
    done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, env={**os.environ, "CARGO_TARGET_DIR": str(target)})
    return done.returncode == 0


def main():
    missing = [name for name in SOURCES if not (ROOT / name).exists()]
    if missing:
        print(f"perfbench: the repository sources are missing: {', '.join(missing)}", file=sys.stderr)
        return 2
    target = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not build(target, ROOT / "perfbench" / "Cargo.toml") or not build(
        target, ROOT / "Cargo.toml", "--bin", "staub"
    ):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    state = target / "perfbench"
    cmd = [
        str(target / "release" / "perfbench"),
        *sys.argv[1:],
        "--staub", str(target / "release" / "staub"),
        "--state-dir", str(state),
        "--commit", commit_id(),
        "--source", source_hash(),
    ]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
