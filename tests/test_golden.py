"""The golden output corpus: every recorded command line gives the recorded output.

tests/golden/regen.py records the corpus and documents what it holds
and when to regenerate it.
"""

import json

import pytest

from golden.regen import CORPUS, EDGE_ARGV, masked, replay, run, versions


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


@pytest.mark.parametrize("argv", EDGE_ARGV)
def test_an_edge_export_to_out_equals_the_export_to_stdout(argv):
    # stdout and --out take one write path, so the bytes are the same but
    # for the two fields of a JSON envelope that differ: its wall_time_s,
    # which masked() sets to 0, and the "out" its runspec holds for --out
    # alone (sorted keys: never the first)
    code, stdout, _, _ = run({"argv": argv})
    out_code, out_stdout, _, out = run({"argv": [*argv, "--out", "export"], "out": "export"})
    assert (out_code, out_stdout) == (code, b"")
    got, want = masked(out.replace(b',\n    "out": "export"', b"")), masked(stdout)
    if got != want:
        at = next((i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]),
                  min(len(got), len(want)))
        pytest.fail(f"--out differs from stdout at byte {at} of {len(want)}: "
                    f"{got[at:at + 40]!r} against {want[at:at + 40]!r}")
