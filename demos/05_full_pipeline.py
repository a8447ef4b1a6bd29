"""The whole pipeline in one script: train, simulate a population, evaluate.

Equivalent to::

    crssim simulate --train --seed 7 --out <run-dir>
    crssim evaluate --out <run-dir>

The run directory it leaves behind is the complete, reproducible record of
the experiment: trained models, every transcript, the exact configuration,
and the metrics report.
"""

import json
import tempfile
from collections import Counter
from pathlib import Path

from crssim import (SimulationConfig, import_dialogues, run_evaluation,
                    run_simulation)
from crssim.runner import TRANSCRIPTS_FILE

run_dir = Path(tempfile.mkdtemp(prefix="crssim-demo-"))

# every other setting keeps its default: the bundled movies assets, the
# in-process mock agent (or pass agent=<base URL> of any wire-protocol
# agent) and 30 turns at most per dialogue
config = SimulationConfig(seed=7, out=str(run_dir), train=True)

out = run_simulation(config)
report = run_evaluation(out / TRANSCRIPTS_FILE, out)

print("=== run directory ===")
for path in sorted(out.rglob("*")):
    kind = "dir " if path.is_dir() else "file"
    print(f"  {kind} {path.relative_to(out)}")

dialogues = import_dialogues(out / TRANSCRIPTS_FILE)
causes = Counter(d.metadata["terminated_by"] for d in dialogues)

print("\n=== results ===")
print(f"  dialogues:   {report.n_dialogues}")
print(f"  AvgTurns:    {report.avg_turns:.2f}")
print(f"  AvgSuccess:  {report.avg_success:.2f}")
print(f"  terminated:  {dict(sorted(causes.items()))}")

longest = max(dialogues, key=lambda d: d.turns)
print(f"\n=== longest dialogue ({longest.dialogue_id}, "
      f"{longest.turns} turns) ===")
for utterance in longest.utterances:
    print(f"  {utterance.participant.value:>5}: {utterance.text}")

snapshot = json.loads((out / "config-snapshot").read_text(encoding="utf-8"))
print(f"\nconfig snapshot says seed={snapshot['seed']}, "
      f"agent={snapshot['agent']!r} — rerunning with the same snapshot "
      f"reproduces every byte of {TRANSCRIPTS_FILE}")
