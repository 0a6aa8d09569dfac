"""The golden output corpus: every recorded command line gives the recorded output.

tests/golden/regen.py records the corpus and documents what it holds
and when to regenerate it.
"""

import collections
import json

import pytest

from golden.regen import CORPUS, EDGE_ARGV, argv_list, masked, replay, run, versions


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


def _case(entry):
    """The command line of a corpus entry or case, as one string."""
    return json.dumps({key: entry[key] for key in ("argv", "out", "config") if key in entry})


def test_argv_list_yields_each_case_once():
    counts = collections.Counter(_case(case) for case in argv_list())
    repeated = [case for case, count in counts.items() if count > 1]
    assert not repeated, f"{len(repeated)} cases repeat, among them {repeated[:3]}"


def test_the_corpus_records_the_cases_of_argv_list():
    recorded = {_case(entry) for entry in json.loads(CORPUS.read_text(encoding="utf-8"))["entries"]}
    listed = {_case(case) for case in argv_list()}
    assert not recorded - listed, f"recorded, no longer listed: {sorted(recorded - listed)[:3]}"
    assert not listed - recorded, f"listed, not recorded: {sorted(listed - recorded)[:3]}"
