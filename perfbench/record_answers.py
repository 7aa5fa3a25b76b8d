"""Record the decoder's answers for the benchmark's seeded sets.

Run from the root of a source checkout, at the commit whose answers
later runs are compared with:

    python3 perfbench/record_answers.py --seeds 0-9 --commit <short hash>

For every workload and seed, each lattice of the set is decoded once
through ``cli.main``; when the decode passes the gates its label string is
stored as an eight-hex-digit digest, else ``-`` is stored and the failure
is printed. The result replaces ``perfbench/answers.json``.
"""

from __future__ import annotations

import argparse
import json
import shutil

from gates import NO_ANSWER, check_decode, digest
from hostspeed import HostSpeed
from run import ANSWERS, WORK, WORKLOADS, decode, import_cli, setup


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True,
                        help="inclusive range FIRST-LAST")
    parser.add_argument("--commit", required=True,
                        help="the commit the answers come from")
    args = parser.parse_args(argv)
    first, last = (int(x) for x in args.seeds.split("-"))
    cli = import_cli()
    speed = HostSpeed(interval=0)
    answers = {}
    for name, workload in WORKLOADS.items():
        directory = WORK / f"record-{name}"
        for seed in range(first, last + 1):
            instances, _ = setup(name, workload, seed, directory)
            digests = []
            for inst in instances:
                result = decode(cli, inst.argv, speed)
                labels, reason = check_decode(inst.reference(), result.code,
                                              result.stdout)
                if reason is None:
                    digests.append(digest(labels))
                else:
                    digests.append(NO_ANSWER)
                    print(f"{name} seed {seed} lattice {inst.index}: {reason}")
            answers.setdefault(name, {})[str(seed)] = "".join(digests)
            print(f"{name} seed {seed}: {len(instances)} lattices", flush=True)
        shutil.rmtree(directory, ignore_errors=True)
    with open(ANSWERS, "w", encoding="utf-8") as handle:
        json.dump({"seed_commit": args.commit, "seeds": args.seeds,
                   "answers": answers}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
