"""Behaviour snapshot of the CLI corpus: exit codes and exact-command stdout.

    python3 bench/snapshot.py            # run the whole corpus, diff against golden/
    python3 bench/snapshot.py --update   # rewrite golden/ from the current program

The check exits 1 on any difference.  Known-defect inputs are not pinned: they
are judged by what they should do (exit 2 with a structured error), so fixing
them does not disturb the snapshot.
"""

import argparse
import json
import sys
from pathlib import Path

import corpus

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_corpus.json"


def record() -> dict:
    out = {}
    for entry in corpus.CORPUS:
        code, stdout, _, _ = corpus.invoke(ROOT, entry.argv)
        out[entry.name] = {"argv": list(entry.argv), "exit": code}
        if entry.exact:
            out[entry.name]["stdout"] = stdout
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--update", action="store_true", help="rewrite the golden snapshot")
    args = ap.parse_args(argv)
    if args.update:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN}")
        return 0
    golden = corpus.load_golden(GOLDEN)
    bad = 0
    for entry in corpus.CORPUS + corpus.KNOWN_DEFECTS:
        code, stdout, _, wall = corpus.invoke(ROOT, entry.argv)
        ok, why = corpus.judge(entry, code, stdout, golden.get(entry.name))
        known = entry in corpus.KNOWN_DEFECTS
        if not ok and not known:
            bad += 1
        state = "ok" if ok else ("known defect" if known else "FAIL")
        print(f"{state:12s} {wall:6.2f}s  {entry.name}  {why}")
    print(f"snapshot {'passed' if not bad else 'FAILED'}: {bad} unexpected difference(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
