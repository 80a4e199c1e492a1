"""Fuzz ``ial detect`` and ``ial eval`` with byte-level corruptions of a stream and a labels file.

Whatever the bytes, the CLI must return one of its exit codes (0, 1, 2, 3) and
let no exception escape.  The checkpoints are untrained narrow networks, so
each example costs a few milliseconds.
"""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ial.cli import main
from ial.data import ManifestEntry, SyntheticConfig, generate_synthetic_stream, write_labels, write_manifest, write_stream
from ial.net import ModelSpec, build_network, save_checkpoint

# bytes that reach the parsers' edge cases: digits that keep a file valid,
# invalid UTF-8 (a lone continuation byte, a truncated sequence, an encoded
# surrogate), separators, non-finite and huge numbers, a Unicode line separator
# and a byte-order mark
TOKENS = [b"0", b"1", b"7", b".", b"e", b"-", b"+", b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80", b"\xe2\x80\xa8",
          b"\x00", b"\n", b"\r", b",", b" ", b"#", b"nan", b"inf", b"-inf", b"1e999", b"1e308", b"1_0", b"\xef\xbb\xbf"]

MUTATION = st.tuples(
    st.sampled_from(["replace", "replace", "insert", "delete", "truncate"]),
    st.floats(0.0, 1.0),  # position, as a share of the file's length
    st.sampled_from(TOKENS) | st.binary(min_size=1, max_size=6),
)


def mutate(data: bytes, mutations) -> bytes:
    for op, share, payload in mutations:
        pos = int(share * len(data))
        if op == "replace":
            data = data[:pos] + payload + data[pos + len(payload):]
        elif op == "insert":
            data = data[:pos] + payload + data[pos:]
        elif op == "delete":
            data = data[:pos] + data[pos + len(payload):]
        else:
            data = data[:pos]
    return data


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """A vector+FC run: untrained checkpoints, one test stream (id 10) and its labels."""
    root = tmp_path_factory.mktemp("fuzz")
    out = root / "out"
    out.mkdir()
    config = root / "config.json"
    config.write_text(json.dumps({"out_dir": str(out), "feature_kind": "vector", "model": "fc"}))
    for phase, n_classes in ((1, 2), (2, 5)):
        spec = ModelSpec("fc", n_classes, (16,), hidden_units=4)
        save_checkpoint(build_network(spec, seed=phase), out / f"phase{phase}_fc.json")
    stream, events = generate_synthetic_stream(
        SyntheticConfig(stream_duration_s=12.0, events_per_stream=2, min_gap_s=1.0), 1, 10
    )
    write_stream(stream, root / "s.csv")
    write_labels(events, root / "s.labels.txt")
    write_manifest(out / "manifest.json", [ManifestEntry(1, 10, str(root / "s.csv"), str(root / "s.labels.txt"))])
    return root, config, {name: (root / name).read_bytes() for name in ("s.csv", "s.labels.txt")}


@settings(max_examples=500, deadline=None, derandomize=True)
@given(
    command_target=st.sampled_from([("detect", "s.csv"), ("eval", "s.csv"), ("eval", "s.labels.txt")]),
    mutations=st.lists(MUTATION, min_size=1, max_size=3),
)
@example(command_target=("detect", "s.csv"), mutations=[("insert", 0.5, b"\xff")])
@example(command_target=("eval", "s.labels.txt"), mutations=[("replace", 0.0, b"\xc3")])
def test_corrupted_stream_or_labels_never_escape_the_exit_codes(run_dir, command_target, mutations):
    command, target = command_target
    root, config, originals = run_dir
    for name, data in originals.items():
        (root / name).write_bytes(mutate(data, mutations) if name == target else data)
    args = ["--config", str(config), command] + ([str(root / "s.csv")] if command == "detect" else [])
    assert main(args) in (0, 1, 2, 3)


@pytest.mark.parametrize("line", ["1 -inf 5.0", "2 10.0 inf"])
def test_eval_of_a_non_finite_label_bound_exits_two(run_dir, capsys, line):
    root, config, originals = run_dir
    for name, data in originals.items():
        (root / name).write_bytes(data)
    (root / "s.labels.txt").write_text(line + "\n")
    capsys.readouterr()
    assert main(["--config", str(config), "eval"]) == 2
    assert capsys.readouterr().err.endswith("data row 1: non-finite value\n")
