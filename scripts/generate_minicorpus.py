#!/usr/bin/env python3
"""Write the planted-structure synthetic bug history to JSONL."""

import argparse

from triagelab.minicorpus import MiniCorpusSpec, generate, write_jsonl


def seed(text):
    """A non-negative integer: numpy's generator refuses negative seeds."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be non-negative, got {value}")
    return value


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="minicorpus.jsonl")
    parser.add_argument("--seed", type=seed, default=7)
    args = parser.parse_args()
    records = generate(MiniCorpusSpec(seed=args.seed))
    write_jsonl(records, args.out)
    print(f"wrote {len(records)} records to {args.out}")


if __name__ == "__main__":
    main()
