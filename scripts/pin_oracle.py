"""Compute and pin the Bayes-oracle accuracy fixture for the desk config.

Run once before the acceptance suite exists; the suite then compares the
pipeline against the pinned number instead of recomputing it.
"""
import json
import sys
import time
from pathlib import Path

from rankforge import synthlab

trials = int(sys.argv[1]) if len(sys.argv) > 1 else 4000
cfg = synthlab.desk_config()
t0 = time.time()
accuracy = synthlab.bayes_oracle_accuracy(cfg, n=20, trials=trials, seed_tag="pin")
fixture = {
    "config_hash": cfg.config_hash(),
    "n": 20,
    "trials": trials,
    "seed_tag": "pin",
    "accuracy": accuracy,
}
out = Path(__file__).resolve().parent.parent / "tests" / "fixtures" / "synthetic_oracle.json"
out.write_text(json.dumps(fixture, indent=2, sort_keys=True) + "\n")
print(json.dumps(fixture), f"({time.time()-t0:.0f}s)")
