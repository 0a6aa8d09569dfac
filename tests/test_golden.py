"""The golden output corpus: every recorded command line gives the recorded output.

tests/golden/regen.py records the corpus and documents what it holds
and when to regenerate it.
"""

import json

from golden.regen import CORPUS, replay, versions


def test_every_corpus_entry_gives_its_recorded_output():
    corpus = json.loads(CORPUS.read_text(encoding="utf-8"))
    changed = []
    for entry in corpus["entries"]:
        got = replay(entry)
        if got != entry:
            diff = ", ".join(f"{k} {v!r} -> {got[k]!r}" for k, v in entry.items() if got[k] != v)
            changed.append(f"\n  {entry['argv']}: {diff}")
    recorded, running = corpus["versions"], versions()
    assert not changed, (
        f"{len(changed)} of {len(corpus['entries'])} entries differ; recorded with {recorded}, "
        f"running {running}" + (" -- the versions differ" if recorded != running else "")
        + "".join(changed[:5]))
