"""Generate a planted two-class annotation dataset as JSONL.

Run:
    python3 scripts/make_synthetic_dataset.py --out data/ --workers 8 \
        --easy 40 --difficult 30 --noise 0.6 --seed 11

Writes annotations.jsonl and tweets.jsonl into --out. Easy tweets get
consistent labels and short durations; difficult ones get noisy labels and
long durations, so the scoring pipeline should recover the two classes.
"""

import argparse
from pathlib import Path

from annodiff.synth import SynthConfig, generate_records, write_jsonl


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="data", help="output directory (default ./data)")
    parser.add_argument("--workers", type=int, default=6)
    parser.add_argument("--easy", type=int, default=30, help="number of easy tweets")
    parser.add_argument("--difficult", type=int, default=30, help="number of difficult tweets")
    parser.add_argument("--noise", type=float, default=0.5, help="label noise on difficult tweets (0..1)")
    parser.add_argument("--institution", choices=("MD", "SU"), default="MD")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    config = SynthConfig(
        n_workers=args.workers,
        n_easy=args.easy,
        n_difficult=args.difficult,
        difficult_label_noise=args.noise,
        institution=args.institution,
        seed=args.seed,
    )
    annotations, tweets = generate_records(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_jsonl(annotations, str(out / "annotations.jsonl"))
    write_jsonl(tweets, str(out / "tweets.jsonl"))
    print(f"wrote {len(annotations)} annotations by {args.workers} workers "
          f"over {args.easy + args.difficult} tweets to {out}/")


if __name__ == "__main__":
    main()
