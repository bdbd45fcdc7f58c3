"""Golden outputs of the iontomo CLI: the cases, how each runs, and how to rewrite them.

Every case runs `iontomo.cli.main` in-process from a scratch working directory
that holds a copy of configs/, with relative paths, so messages that name a
path stay stable. A case records its exit code, its stdout and every file it
wrote. expected/<config>.json holds the records of one config's invocations;
tests/test_golden.py compares them with fresh runs byte for byte, which holds
on the same numpy and BLAS build.

Run this file to rewrite expected/:

    PYTHONPATH=src python tests/golden/regen.py

For every case whose record changed it prints the largest parsed numeric
difference per field and every changed non-numeric field, or one line per
output whose text alone changed, ready to paste into CHANGES.md. A change to
any expected output comes with that report.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
CONFIGS = HERE / "configs"
EXPECTED = HERE / "expected"

# Run configs, and the flags every invocation of each adds.
RUNS = {
    "fock-d6": (),
    "fock-d5-compiled-shots": (),
    "coherent-d8": (),
    "coherent-d8-compat": ("--compat-rminus-final",),
    "coherent-d8-compiled-compat": ("--compat-rminus-final",),
    "coherent-d7-shots": (),
    "squeezed-d8": (),
    "squeezed-d8-compiled-shots": (),
    "cat-even-d8": (),
    "cat-odd-d8-compiled": (),
    "cat-odd-d6-shots-compat": ("--compat-rminus-final",),
    "thermal-d6": (),
    "thermal-d8-compiled-shots": (),
    "raw-d4": (),
    "raw-d5-compiled-shots": (),
    "edge-d2": (),
    "edge-d2-compiled": (),
    "edge-d3": (),
    "edge-d3-compiled": (),
    "edge-d4-compiled-shots": (),
    "edge-d4-compat": ("--compat-rminus-final",),
}

# The invocations of every run config. coherence reads cell (nmax, 0) of the config's block.
INVOCATIONS = {
    "reconstruct": ("reconstruct",),
    "reconstruct-csv": ("reconstruct", "--format", "csv"),
    "reconstruct-hermitian": ("reconstruct", "--use-hermitian-symmetry"),
    "coherence": ("coherence", "--m", "{nmax}", "--n", "0"),
    "monitor": ("monitor", "--lambdas", "0,0.3"),
    "monitor-csv": ("monitor", "--lambdas", "0,0.3", "--format", "csv"),
    "validate": ("validate",),
    "validate-json": ("validate", "--out", "out.json"),
    "validate-csv": ("validate", "--format", "csv", "--out", "out.csv"),
}

# Configs whose run ends in an error record, each run through reconstruct: one per
# config-error path, the two zero states, and the config fields that named an
# output. error-dims-unequal-v-mode pins that the unequal cutoffs, not the bad
# v_mode, are reported. error-unreadable has no file, so reading it fails.
ERRORS = (
    "error-unreadable", "error-not-json", "error-root-not-object", "error-unknown-field",
    "error-missing-dims", "error-dims-not-object", "error-dims-unknown-field",
    "error-dims-not-integer", "error-dims-too-small", "error-dims-unequal",
    "error-dims-unequal-v-mode", "error-v-mode",
    "error-shots-not-integer", "error-missing-state", "error-state-not-object",
    "error-state-kind", "error-state-unknown-field", "error-state-missing-field",
    "error-state-not-number", "error-alpha-empty-pair", "error-amplitude-one-part",
    "error-amplitudes-not-list", "error-missing-nmax", "error-duplicate-field",
    "zero-raw", "zero-cat", "config-out", "config-format", "config-out-not-string",
)


def case_argvs(config: str) -> dict[str, list[str]]:
    """The argv of each invocation of one config, by invocation name."""
    path = f"configs/{config}.json"
    if config in ERRORS:
        return {"reconstruct": ["reconstruct", "--config", path]}
    nmax = json.loads((CONFIGS / f"{config}.json").read_text())["nmax"]
    return {name: [arg.format(nmax=nmax) for arg in args] + ["--config", path, *RUNS[config]]
            for name, args in INVOCATIONS.items()}


def workdir(root: Path) -> Path:
    """root with a copy of configs/ in it, ready to run cases from."""
    shutil.copytree(CONFIGS, root / "configs")
    return root


def run_case(argv: list[str], root: Path) -> dict:
    """Exit code, stdout and the files written by one in-process run from root; the files are removed."""
    from iontomo import cli

    before = set(os.listdir(root))
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(root)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    files = {}
    for name in sorted(set(os.listdir(root)) - before):
        files[name] = (root / name).read_text(encoding="utf-8")
        (root / name).unlink()
    return {"exit": code, "stdout": out.getvalue(), "files": files}


def records(config: str, root: Path) -> dict:
    """The records of every invocation of one config, by invocation name."""
    return {name: run_case(argv, root) for name, argv in case_argvs(config).items()}


def dump(doc: dict) -> str:
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# the difference report

def _flat_json(node, path: str, out: dict) -> None:
    """Leaves of a parsed JSON document, by path with list indices collapsed to []."""
    if isinstance(node, dict):
        for key, value in node.items():
            _flat_json(value, f"{path}.{key}", out)
    elif isinstance(node, list):
        for value in node:
            _flat_json(value, f"{path}[]", out)
    else:
        out.setdefault(path, []).append(node)


def _fields(text: str, where: str) -> dict:
    """The fields of one output: JSON leaves or CSV columns; other text has none, so it is shown whole."""
    out: dict = {}
    try:
        _flat_json(json.loads(text), where, out)
        return out
    except ValueError:
        pass
    lines = text.splitlines()
    if lines and "," in lines[0] and " " not in lines[0]:
        for row in csv.DictReader(lines):
            for key, value in row.items():
                out.setdefault(f"{where}.{key}", []).append(_parsed(value))
    return out


def _parsed(value: str):
    try:
        return float(value)
    except ValueError:
        return value


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _streams(record: dict) -> dict:
    """The outputs of one record, by name: its stdout and each file it wrote."""
    return {"stdout": record["stdout"], **{f"file {name}": text for name, text in record["files"].items()}}


def diff_lines(old: dict, new: dict) -> list[str]:
    """What changed in one case: per field its largest numeric difference, or its old and new values.

    An output that holds a different document (an error record in place of a
    report, say), or that appeared or vanished, is shown whole, shortened. An
    output whose text changed while every parsed field stayed equal (a number
    written another way) gets one line saying so.
    """
    lines = [f"exit: {old['exit']} -> {new['exit']}"] if old["exit"] != new["exit"] else []
    a, b = _streams(old), _streams(new)
    for stream in sorted(set(a) | set(b)):
        ta, tb = a.get(stream), b.get(stream)
        if ta == tb:
            continue
        fa = _fields(ta, stream) if ta else {}
        fb = _fields(tb, stream) if tb else {}
        if not set(fa) & set(fb):
            lines.append(f"{stream}: {_short(ta)} -> {_short(tb)}")
            continue
        if fa == fb:
            lines.append(f"{stream}: formatting only, every parsed field equal")
            continue
        for field in sorted(set(fa) | set(fb)):
            va, vb = fa.get(field), fb.get(field)
            if va == vb:
                continue
            if va is not None and vb is not None and len(va) == len(vb) \
                    and all(_is_number(x) and _is_number(y) for x, y in zip(va, vb)):
                worst = max(abs(x - y) for x, y in zip(va, vb))
                lines.append(f"{field}: max |diff| {worst:.3e}")
            else:
                lines.append(f"{field}: {_short(va)} -> {_short(vb)}")
    return lines


def _short(value) -> str:
    if value is None:
        return "(absent)"
    if isinstance(value, list) and len(value) == 1:
        value = value[0]
    text = repr(value.strip() if isinstance(value, str) else value)
    return text if len(text) <= 160 else text[:157] + "..."


def main() -> int:
    EXPECTED.mkdir(exist_ok=True)
    changed = 0
    with tempfile.TemporaryDirectory() as tmp:
        root = workdir(Path(tmp))
        for config in [*RUNS, *ERRORS]:
            path = EXPECTED / f"{config}.json"
            old = json.loads(path.read_text()) if path.exists() else {}
            new = records(config, root)
            for name in sorted(set(old) | set(new)):
                if old.get(name) == new.get(name):
                    continue
                changed += 1
                if name not in old or name not in new:
                    print(f"{config}/{name}: {'added' if name not in old else 'removed'}")
                    continue
                print(f"{config}/{name}:")
                for line in diff_lines(old[name], new[name]):
                    print(f"  {line}")
            path.write_text(dump(new))
    print(f"{changed} case(s) changed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
