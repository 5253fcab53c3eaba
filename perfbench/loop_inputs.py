"""Seeded inputs for the bench-owned kernel ``perfbench/loop_barrier.wir``.

Trip counts come from fixed multisets that the seed only shuffles, so every
seed gives the same iCnt groups, the same number of sampled fault sites and
the same total golden work; the seed moves which threads share a group, the
chain links, the loaded values and therefore which branch each lane takes.

    python3 perfbench/loop_inputs.py --kernel perfbench/loop_barrier.wir --seed 0 --out inputs.json
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

TRIPS = (2, 3, 5, 8)  # first-loop trip counts, one quarter of the threads each
TRIPS2 = (1, 4)  # second-loop trip counts, one half each


def loop_inputs(program, seed: int) -> dict[str, list[int]]:
    rng = random.Random(f"loop_barrier:{seed}")
    sizes = dict(program.input_buffers)
    n = program.total_threads

    def shuffled(values: tuple[int, ...]) -> list[int]:
        words = [values[i * len(values) // n] for i in range(n)]
        rng.shuffle(words)
        return words

    return {
        "trips": shuffled(TRIPS),
        "trips2": shuffled(TRIPS2),
        "link": [rng.randrange(sizes["vals"]) for _ in range(sizes["link"])],
        "vals": [rng.getrandbits(32) for _ in range(sizes["vals"])],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--kernel", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from warpshield.ir import parse_kernel

    program = parse_kernel(Path(args.kernel).read_text())
    Path(args.out).write_text(json.dumps(loop_inputs(program, args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
