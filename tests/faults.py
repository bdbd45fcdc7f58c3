"""A fault catalogue: plausible one-line engine bugs, each expected to fail a property test.

The golden byte comparison (test_golden.py) catches any fault that moves an
output, but it cannot say which property broke, and every regeneration of the
golden outputs re-blesses whatever they then hold. So each fault here must
also fail a test that states what should hold.

Each entry edits one line of a copy of src/iontomo: the old line, which must
occur exactly once in its file, becomes the new line. The entry names the test
expected to fail (a path::Class::function id, whose parametrized cases all
count). An equivalent entry changes no behaviour and is expected to fail
nothing. Run it with the standard library and pytest:

    python tests/faults.py              # every fault, about 20 s each
    python tests/faults.py NAME ...     # only the named faults

For each fault it copies src to a temporary directory, applies the edit, runs
the tests without test_golden.py and test_perfbench.py on that copy, and
prints one row: caught or uncaught, whether the expected test failed, and the
failing test ids. The exit code is 1 when a fault that is not equivalent goes
uncaught or misses its expected test. tests/test_faults.py checks, in tier-1,
that every edit still applies and every expected test exists.
"""

from __future__ import annotations

import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SKIPPED = ("tests/test_golden.py", "tests/test_perfbench.py")


@dataclass(frozen=True)
class Fault:
    name: str
    file: str
    old: str
    new: str
    expected: str
    equivalent: bool = False


CATALOGUE = [
    Fault("closing-carrier-phase", "protocol.py",
          "schedule.append(PulseSpec(\"carrier\", levels, mode, HALF_PI, 3.0 * HALF_PI))",
          "schedule.append(PulseSpec(\"carrier\", levels, mode, HALF_PI, HALF_PI))",
          "tests/test_protocol.py::TestCompiledShifters::test_branch_action_both_shifters"),
    Fault("unclipped-probabilities", "protocol.py",
          "clipped = np.clip(p, 0.0, 1.0)",
          "clipped = p",
          "tests/test_protocol.py::TestSampling::test_rounding_is_clipped_as_before"),
    Fault("stderr-halved-variance", "protocol.py",
          "stderr = math.sqrt((var_x + var_y) / shots)",
          "stderr = math.sqrt((var_x + var_y) / (2 * shots))",
          "tests/test_protocol.py::TestSampling::test_stderr_calibrated"),
    Fault("no-bessel-correction", "protocol.py",
          "var *= shots / (shots - 1)",
          "var *= 1.0",
          "tests/test_protocol.py::TestSampling::test_stderr_calibrated"),
    Fault("trace-distance-largest-eigenvalue", "tomography.py",
          "return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))",
          "return float(np.max(np.abs(np.linalg.eigvalsh(diff))))",
          "tests/test_tomography.py::TestDistances::test_diagonal_is_half_l1_distance"),
    Fault("monitor-bound-unclipped", "tomography.py",
          "bound = float(np.sqrt(max(r00.value.real, 0.0) * max(r22.value.real, 0.0)))",
          "bound = float(np.sqrt(abs(r00.value.real) * abs(r22.value.real)))",
          "tests/test_tomography.py::TestDecoherenceMonitor::test_bound_clips_negative_sampled_population"),
    Fault("stream-key-n-m", "protocol.py",
          "rng = np.random.default_rng([int(seed), int(m), int(n), tag])",
          "rng = np.random.default_rng([int(seed), int(n), int(m), tag])",
          "tests/test_protocol.py::TestSampling::test_stream_key_is_seed_m_n_tag"),
    # Both comparisons pick the same shift t: where desc equals the shift, that
    # eigenvalue is clipped to zero either way.
    Fault("simplex-test-inclusive", "tomography.py",
          "t = shifts[np.nonzero(desc > shifts)[0][-1]]",
          "t = shifts[np.nonzero(desc >= shifts)[0][-1]]",
          "", equivalent=True),
    Fault("beam-split-sign", "pulses.py",
          "state[XI] = (bright - dark) / math.sqrt(2.0)",
          "state[XI] = (dark - bright) / math.sqrt(2.0)",
          "tests/test_pulses.py::TestVibrationalRotation::test_swaps_bright_branch"),
    Fault("shift-ideal-m-n-swapped", "protocol.py",
          "def _shift_ideal(w: np.ndarray, m: int, n: int) -> np.ndarray:",
          "def _shift_ideal(w: np.ndarray, n: int, m: int) -> np.ndarray:",
          "tests/test_protocol.py::TestIdealShifters::test_matches_loop_reference"),
    Fault("xi-outcome-dropped", "protocol.py",
          "red[XI, XI].real,",
          "0.0,",
          "tests/test_protocol.py::TestSampling::test_xi_outcome_is_the_xi_population"),
    Fault("dephase-linear-exponent", "states.py",
          "kernel = np.exp(-min(lam, _EXP_UNDERFLOW) * (n[:, None] - n[None, :]) ** 2)",
          "kernel = np.exp(-min(lam, _EXP_UNDERFLOW) * abs(n[:, None] - n[None, :]))",
          "tests/test_states.py::TestDephase::test_scaling_of_specific_element"),
    Fault("required-dim-off-by-one", "states.py",
          "raise TruncationLeakageError(kind, dim, tail, tail_tol, int(ok[0]))",
          "raise TruncationLeakageError(kind, dim, tail, tail_tol, int(ok[0]) + 1)",
          "tests/test_states.py::TestFarTail::test_required_dim_is_the_smallest_sufficient_cutoff"),
    Fault("projection-keeps-input-trace", "tomography.py",
          "shifts = (np.cumsum(desc) - 1.0) / np.arange(1, len(w) + 1)",
          "shifts = (np.cumsum(desc) - np.trace(herm).real) / np.arange(1, len(w) + 1)",
          "tests/test_tomography.py::TestProjectPhysical::test_output_always_valid"),
]


def applied(fault: Fault, text: str) -> str:
    """text with the fault's edit made; a ValueError unless its old line occurs exactly once."""
    lines = text.split("\n")
    hits = [i for i, line in enumerate(lines) if line.strip() == fault.old]
    if len(hits) != 1:
        raise ValueError(f"{fault.name}: old line found {len(hits)} times in {fault.file}")
    i = hits[0]
    lines[i] = lines[i][:len(lines[i]) - len(lines[i].lstrip())] + fault.new
    return "\n".join(lines)


def names_a_test(test_id: str) -> bool:
    """Whether a path::[Class::]function id names a test function in the repository, read statically."""
    path, *names = test_id.split("::")
    file = ROOT / path
    if not file.is_file() or not names:
        return False
    body = ast.parse(file.read_text(encoding="utf-8")).body
    for name in names:
        node = next((n for n in body if isinstance(n, (ast.ClassDef, ast.FunctionDef))
                     and n.name == name), None)
        if node is None:
            return False
        body = node.body
    return isinstance(node, ast.FunctionDef)


def failing_tests(src: Path, workdir: Path) -> list[str]:
    """The ids of the tests that fail on the package under src, golden and benchmark tests skipped."""
    ignore = [f"--ignore={ROOT / path}" for path in SKIPPED]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
                           *ignore, str(ROOT / "tests")],
                          cwd=workdir, env=env, capture_output=True, text=True)
    failed = re.findall(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", proc.stdout, flags=re.MULTILINE)
    # pytest names a test by its path from the working directory; name it from the root
    return [Path(os.path.relpath(workdir / path, ROOT)).as_posix() + rest
            for path, rest in (re.match(r"([^:]*)(.*)", f).groups() for f in failed)]


def run(fault: Fault) -> tuple[bool, bool, list[str]]:
    """(caught, expected test failed, failing ids) of one fault, run on a faulted copy of src."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        shutil.copytree(SRC, tmp / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        target = tmp / "src" / "iontomo" / fault.file
        target.write_text(applied(fault, target.read_text(encoding="utf-8")), encoding="utf-8")
        failed = failing_tests(tmp / "src", tmp)
    hit = any(f == fault.expected or f.startswith(fault.expected + "[") for f in failed)
    return bool(failed), hit, failed


def main(argv: list[str]) -> int:
    faults = [f for f in CATALOGUE if not argv or f.name in argv]
    unknown = set(argv) - {f.name for f in CATALOGUE}
    if unknown:
        print(f"unknown fault(s): {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    print("| fault | file | result | expected test failed | failures | failing tests |")
    print("|---|---|---|---|---|---|")
    bad = 0
    for fault in faults:
        caught, hit, failed = run(fault)
        if fault.equivalent:
            result, expected = ("caught" if caught else "uncaught (equivalent)"), "n/a"
            bad += caught
        else:
            result, expected = ("caught" if caught else "UNCAUGHT"), ("yes" if hit else "NO")
            bad += not (caught and hit)
        shown = ", ".join(f.removeprefix("tests/") for f in failed[:4])
        more = f" and {len(failed) - 4} more" if len(failed) > 4 else ""
        print(f"| {fault.name} | {fault.file} | {result} | {expected} | {len(failed)} | {shown}{more} |",
              flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
