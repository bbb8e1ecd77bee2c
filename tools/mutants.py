"""Run the checked-in source mutants and report which the tests kill.

    python3 tools/mutants.py            # every mutant
    python3 tools/mutants.py NAME ...   # the mutants whose names contain NAME

Each entry of MUTANTS is one edit of one line of src/extsquare: the file,
the exact line (indentation included), its replacement, and the tests that
must catch it.  For each entry the script copies src/ to a temporary
directory, replaces the line there, and runs the named tests against the
copy with `python -m pytest -x -q` (PYTHONPATH set to the copy; the tests
are read from this checkout's tests/).  It prints "killed" when the tests
fail, "survived" when they pass ("error" when pytest could not run them as
named), and the seconds taken.  First the named tests run on an unmutated
copy, where they must pass, or no kill would mean anything.  The exit
status is 1 unless that holds and every mutant is killed.  Nothing in this
checkout is modified.

A tier-1 test (tests/test_mutants.py) checks that every listed line occurs
exactly once in its file, so an edit of the source that moves a line makes
the list fail instead of rotting silently.  The mutants themselves run only
here, outside tier-1.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, file in src/extsquare, exact line, replacement, tests)
MUTANTS = [
    (
        "one-limb bound at 2^54",
        "matrices.py",
        "    if dim * top * top + m <= 2**53:",
        "    if dim * top * top + m <= 2**54:",
        ["tests/test_matrices.py::test_float64_kernel_matches_the_ring_product_at_its_bound"],
    ),
    (
        "limb width one bit too wide",
        "matrices.py",
        "    return widest.bit_length() - 1 if widest >= 2 else None",
        "    return widest.bit_length() if widest >= 2 else None",
        ["tests/test_matrices.py::test_every_limb_width_matches_the_integer_product_at_its_edges"],
    ),
    (
        "_float64_reduce truncating, not flooring",
        "matrices.py",
        "    np.floor(q, out=q)",
        "    np.trunc(q, out=q)",
        ["tests/test_exterior.py", "tests/test_plucker.py"],
    ),
    (
        "_chain_matmul mid-chain bound at 2^54",
        "matrices.py",
        "        if rows * (m - 1) + m > 2**53:",
        "        if rows * (m - 1) + m > 2**54:",
        ["tests/test_matrices.py::test_chain_matmul_reduces_mid_chain_exactly_where_its_bound_requires"],
    ),
    (
        "membership without its sign weights",
        "plucker.py",
        "    left *= sign[:, :, None]",
        "    pass",
        ["tests/test_plucker.py"],
    ),
    (
        "membership without reducing the signed values",
        "plucker.py",
        "        matrices._float64_reduce(split, m)",
        "        pass",
        ["tests/test_plucker.py"],
    ),
    (
        "_int64_minors admitting (m-1)^2 = 2^62",
        "exterior.py",
        '    return ring.kind == "zmod" and (ring.modulus - 1) ** 2 < 2**62',
        '    return ring.kind == "zmod" and (ring.modulus - 1) ** 2 <= 2**62',
        ["tests/test_exterior.py", "tests/test_rdu.py"],
    ),
    (
        "letter sign rule without sj",
        "words.py",
        "        signs.append(si * sj)",
        "        signs.append(si)",
        ["tests/test_words.py"],
    ),
    (
        "_is_letter without its complement half",
        "rdu.py",
        "    return product._gather(rows, cols) == values and product._equals_at(*_letter_complement(n, ring, i, j))",
        "    return product._gather(rows, cols) == values",
        ["tests/test_rdu.py::test_a_letter_is_checked_in_place"],
    ),
    (
        "_unipotent_pair writing the inverse at (rows, cols)",
        "matrices.py",
        "    stack[1, cols, rows] = neg  # the transpose of I - A",
        "    stack[1, rows, cols] = neg",
        ["tests/test_words.py::test_zmod_and_generic_paths_agree"],
    ),
    (
        "TransvWord support transposed",
        "words.py",
        "        return _eval_letters(ring, self.dim, self.letters, lambda i, j, xi: ([i - 1], [j - 1], [xi]))",
        "        return _eval_letters(ring, self.dim, self.letters, lambda i, j, xi: ([j - 1], [i - 1], [xi]))",
        ["tests/test_words.py::test_zmod_and_generic_paths_agree"],
    ),
    (
        "Matrix.__init__ without ring.coerce",
        "matrices.py",
        "        _from_rows(ring, [[coerce(int(x) if isinstance(x, np.integer) else x) for x in r] for r in rows], self)",
        "        _from_rows(ring, rows, self)",
        ["tests/test_matrices.py::test_matrix_entries_pass_through_ring_coerce"],
    ),
]


def _mutate(src: Path, file: str, line: str, replacement: str) -> None:
    path = src / "extsquare" / file
    lines = path.read_text().split("\n")
    if lines.count(line) != 1:
        raise SystemExit(f"{file}: the line occurs {lines.count(line)} times: {line!r}")
    lines[lines.index(line)] = replacement
    path.write_text("\n".join(lines))


def run(name: str, tests, edit=None) -> str:
    """The tests' verdict on a copy of src/ with the one `edit` (file, line,
    replacement) applied, or none, printed with the seconds taken."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="extsquare-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if edit:
            _mutate(src, *edit)
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=ROOT,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
    # pytest exits 1 when tests fail; 2 to 5 mean they did not run as named
    names = ("survived", "killed") if edit else ("passed", "failed")
    verdict = names[done.returncode] if done.returncode in (0, 1) else f"error {done.returncode}"
    print(f"{verdict:8}  {time.perf_counter() - start:6.1f} s  {name}", flush=True)
    return verdict


def main(argv) -> int:
    chosen = [m for m in MUTANTS if not argv or any(a in m[0] for a in argv)]
    # the named tests must pass on the unmutated source, or a kill means nothing
    if run("(no mutant: the named tests must pass)", sorted({t for m in chosen for t in m[4]})) != "passed":
        return 1
    verdicts = [run(name, tests, (file, line, replacement)) for name, file, line, replacement, tests in chosen]
    return 0 if all(v == "killed" for v in verdicts) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
