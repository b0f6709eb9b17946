"""The benchmark's training process: one ``PowerGear.fit`` with the default
architecture on the featurised catalog minus one held-out kernel (Table I's
leave-one-out protocol).

Usage::

    python3 perfbench/trainer.py --catalog FILE --held-out KERNEL --epochs N
        [--load-only] [--trace FILE]

Prints ``loaded <designs>`` once the dataset is in memory (``--load-only``
exits there).  Then it fits once and prints ``result {...}``: the designs
through forward and backward in the fit, its timed window, the fitted
fingerprint and the held-out error.
"""

from __future__ import annotations

import argparse
import json
import math

from common import peak_rss_kb
from tracer import SERVING_POINTS, TRAINING_POINTS, SpanRecorder, clock, install, install_disk_tier


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--catalog", required=True)
    parser.add_argument("--held-out", required=True)
    parser.add_argument("--epochs", type=int, required=True)
    parser.add_argument("--load-only", action="store_true")
    parser.add_argument("--trace")
    args = parser.parse_args()

    from repro import PowerGear, PowerGearConfig
    from repro.gnn.trainer import TrainingConfig
    from repro.graph.dataset import GraphDataset

    samples = GraphDataset.load_npz(args.catalog).samples
    train = [s for s in samples if s.kernel != args.held_out]
    held_out = [s for s in samples if s.kernel == args.held_out]
    print(f"loaded {len(train)}", flush=True)
    if args.load_only:
        return

    recorder = None
    if args.trace:
        # Serving layers are wrapped too: the trace must show none is entered.
        recorder = SpanRecorder()
        install(recorder, TRAINING_POINTS + SERVING_POINTS)
        install_disk_tier(recorder)

    config = PowerGearConfig(training=TrainingConfig(epochs=args.epochs))
    ensemble = config.ensemble
    start = clock()
    model = PowerGear(config).fit(train)
    end = clock()
    held_out_mape = model.evaluate(held_out)
    if recorder is not None:
        recorder.dump(args.trace)
    result = {
        # Every member trains on all folds but its own: (folds - 1) x N per seed.
        "designs": args.epochs * len(ensemble.seeds) * (ensemble.folds - 1) * len(train),
        "window": [start, end],
        "fingerprint": model.fingerprint(),
        "held_out_mape": held_out_mape if math.isfinite(held_out_mape) else None,
        "peak_rss_kb": peak_rss_kb(),
    }
    print("result " + json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
