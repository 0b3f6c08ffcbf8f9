"""md5 of every output file of the FASTA CLI on perfbench's seeded genome.

Usage: python scripts/fasta_digest.py [seed ...]     (default seed 1)

For each seed it writes the FASTA of ``perfbench/gen.make_fasta`` to a
temporary directory and runs ``python -m fasta_windows_ray fasta`` three
times: with ``-c`` (five TSVs), with ``-c -m -d`` (masked, with
descriptions) and with ``-e`` (entropy BED). It prints one line per
output file: seed, flags, file name, md5. Running it on two checkouts
and diffing the two outputs checks that they write byte-identical files.
"""

import hashlib
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import gen  # noqa: E402

RUNS = (("c", ["-c"]), ("cmd", ["-c", "-m", "-d"]), ("e", ["-e"]))


def digest(seed: int) -> list[str]:
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        fasta = os.path.join(tmp, "genome.fa")
        gen.make_fasta(fasta, seed)
        for tag, flags in RUNS:
            out = os.path.join(tmp, tag)
            subprocess.run(
                [sys.executable, "-m", "fasta_windows_ray", "--num-cpus", "1",
                 "fasta", "-f", fasta, "-o", "fw", "--out-dir", out, *flags],
                cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
            for name in sorted(os.listdir(out)):
                with open(os.path.join(out, name), "rb") as f:
                    md5 = hashlib.md5(f.read()).hexdigest()
                lines.append(f"seed{seed}\t{tag}\t{name}\t{md5}")
    return lines


def main(argv: list[str]) -> int:
    for seed in [int(s) for s in argv] or [1]:
        for line in digest(seed):
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
