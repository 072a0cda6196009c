import os

import golden_corpus


def test_cli_outputs_match_golden_corpus(tmp_path):
    """Every output of the fixed command matrix is byte-identical to the corpus."""
    stored, sums = golden_corpus.split(golden_corpus.generate(str(tmp_path)))
    golden = sorted(f for f in os.listdir(golden_corpus.GOLDEN)
                    if f not in golden_corpus.KEEP)
    assert sorted(stored) == golden
    for fname in golden:
        with open(os.path.join(golden_corpus.GOLDEN, fname), "rb") as fh:
            assert stored[fname] == fh.read(), fname
    with open(os.path.join(golden_corpus.GOLDEN, golden_corpus.DIGESTS), encoding="utf-8") as fh:
        assert sums == fh.read()
