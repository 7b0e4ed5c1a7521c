"""Artifact I/O: streamed writes pinned to the joined-text bytes, tables
written in row blocks by forked workers, atomic failure, loader
equivalence, and memory bounds measured with tracemalloc."""

import errno
import json
import os
import pickle
import tracemalloc

import numpy as np
import pytest

import dynlocrep.data as data_module
from dynlocrep import (
    Dataset,
    EncoderConfig,
    InputError,
    ParseError,
    SyntheticSpec,
    generate_synthetic,
    init_encoder,
    load_csv,
    save_checkpoint,
    write_csv,
)
from dynlocrep.cli import EXIT_OK, _export_table, main

MB = 1 << 20
BLOCK = data_module._BLOCK_CELLS


def joined(lines):
    """The reference text: every line, each ended by a newline."""
    return "\n".join(lines) + "\n"


def repr_row(values):
    return ",".join(map(repr, values.tolist()))


def csv_reference(dataset):
    header = "id,y," + ",".join(f"f{j}" for j in range(dataset.feature_dim))
    values = np.column_stack((dataset.labels, dataset.features))
    return joined([header, *(f"{i},{repr_row(row)}" for i, row in zip(dataset.ids, values))])


def export_reference(epoch, ids, labels, embeddings):
    header = "epoch,id,y," + ",".join(f"z{j}" for j in range(embeddings.shape[1]))
    values = np.column_stack((labels, embeddings))
    return joined([header, *(f"{epoch},{i},{repr_row(row)}" for i, row in zip(ids, values))])


def write_export(path, epoch, ids, labels, embeddings):
    """An embedding export's table, written at once as ``dynlocrep train``
    writes the export of its last epoch."""
    with data_module._table_file(path, *_export_table(epoch, ids, labels, embeddings)):
        pass


def random_dataset(rng, n, p):
    scales = rng.choice([1e-300, 1e-3, 1.0, 1e3, 1e300], size=(n, p + 1))
    values = rng.standard_normal((n, p + 1)) * scales
    values[rng.random((n, p + 1)) < 0.05] = -0.0
    ids = tuple(f"r{i}" for i in range(n))
    return Dataset(features=values[:, 1:].copy(), labels=values[:, 0].copy(), ids=ids)


def peak_bytes(call):
    """The peak of traced allocations while ``call()`` runs, above what was
    traced when it started."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# every writer gives the bytes of the joined text
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(("n", "p"), [(1, 1), (7, 1), (23, 5)])
def test_write_csv_bytes_equal_the_joined_text(tmp_path, n, p):
    dataset = random_dataset(np.random.default_rng(n * 10 + p), n, p)
    write_csv(dataset, tmp_path / "data.csv")
    assert (tmp_path / "data.csv").read_bytes() == csv_reference(dataset).encode()


@pytest.mark.parametrize("n", [4, 1])
def test_write_csv_refuses_a_dataset_without_features_before_the_file_is_touched(tmp_path, n):
    """Its header would be ``id,y,``, which load_csv refuses."""
    path = tmp_path / "data.csv"
    path.write_text("previous\n")
    with pytest.raises(InputError, match="^a dataset CSV needs at least one feature column"):
        write_csv(random_dataset(np.random.default_rng(n * 10), n, 0), path)
    assert path.read_text() == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["data.csv"]


@pytest.mark.parametrize(("n", "d"), [(1, 1), (9, 4), (30, 32)])
def test_embedding_export_bytes_equal_the_joined_text(tmp_path, n, d):
    rng = np.random.default_rng(n + d)
    ids = tuple(f"s{i:05d}" for i in range(n))
    labels, embeddings = rng.normal(40.0, 15.0, size=n), rng.standard_normal((n, d))
    write_export(tmp_path / "export.csv", 7, ids, labels, embeddings)
    expected = export_reference(7, ids, labels, embeddings)
    assert (tmp_path / "export.csv").read_bytes() == expected.encode()


def test_checkpoint_bytes_equal_the_joined_text(tmp_path):
    encoder = init_encoder(EncoderConfig(input_dim=5, hidden_dims=(7, 3), output_dim=2), seed=4)
    lines = ["dynlocrep-encoder-checkpoint v1", "layer_dims 5 7 3 2"]
    for idx, (w, b) in enumerate(zip(encoder.weights, encoder.biases)):
        lines.append(f"layer {idx} weight {w.shape[0]} {w.shape[1]}")
        lines.extend(" ".join(map(repr, row.tolist())) for row in w)
        lines.append(f"layer {idx} bias {b.shape[0]}")
        lines.append(" ".join(map(repr, b.tolist())))
    save_checkpoint(encoder, tmp_path / "encoder.txt")
    assert (tmp_path / "encoder.txt").read_bytes() == joined(lines).encode()


def test_report_bytes_equal_the_joined_text(tmp_path):
    # the trace is pinned to its joined text by
    # test_cli.py::test_train_defaults_are_the_library_defaults
    data = tmp_path / "data.csv"
    write_csv(generate_synthetic(SyntheticSpec(n=40, feature_dim=6, informative_dims=3), 0), data)
    report = tmp_path / "report.json"
    argv = [
        "benchmark", "--data", str(data), "--seeds", "0", "--variants", "rnc", "--epochs", "3",
        "--batch-size", "8", "--hidden-dims", "8", "--embed-dim", "4", "--out", str(report),
    ]
    assert main(argv) == EXIT_OK
    text = report.read_text()
    assert text == joined([json.dumps(json.loads(text), indent=2)])


# ---------------------------------------------------------------------------
# a failed write leaves the previous file
# ---------------------------------------------------------------------------


def test_line_iterator_that_raises_keeps_the_previous_file_and_no_temp_file(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("previous\n")

    def lines():
        for i in range(1000):
            yield f"line {i}"
        raise RuntimeError("source failed")

    with pytest.raises(RuntimeError, match="source failed"):
        data_module._write_lines_atomic(path, lines())
    assert path.read_text() == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["data.csv"]


# ---------------------------------------------------------------------------
# a large table is written in row blocks by forked workers, to the same bytes
# ---------------------------------------------------------------------------


def rows_for(blocks, columns, parity):
    """The fewest rows of the given parity whose table of ``columns`` matrix
    columns holds ``blocks`` blocks."""
    rows = -(-blocks * BLOCK // (columns + 1))
    return rows + (rows % 2 != parity)


@pytest.mark.parametrize(
    ("columns", "blocks", "usable", "parity"),
    [(16, 2, 2, 1), (16, 2, 2, 0), (1, 2, 2, 1), (16, 3, 4, 0), (16, 4, 4, 1), (16, 2, 4, 0)],
    ids=["odd", "even", "one-column", "three-blocks", "four-blocks", "fewer-blocks-than-cpus"],
)
def test_write_csv_of_a_table_in_blocks_gives_the_joined_text(
    tmp_path, cpus, forks, no_worker_left, columns, blocks, usable, parity
):
    cpus(usable)
    rows = rows_for(blocks, columns, parity)
    dataset = random_dataset(np.random.default_rng(rows), rows, columns)
    write_csv(dataset, tmp_path / "data.csv")
    assert len(forks) == blocks - 1
    assert (tmp_path / "data.csv").read_bytes() == csv_reference(dataset).encode()
    assert [p.name for p in tmp_path.iterdir()] == ["data.csv"]


@pytest.mark.parametrize(("columns", "parity"), [(32, 1), (32, 0), (1, 0)])
def test_embedding_export_in_blocks_gives_the_joined_text(
    tmp_path, cpus, forks, no_worker_left, columns, parity
):
    cpus(2)
    rows = rows_for(2, columns, parity)
    rng = np.random.default_rng(rows)
    ids = tuple(f"s{i:05d}" for i in range(rows))
    labels, embeddings = rng.normal(40.0, 15.0, size=rows), rng.standard_normal((rows, columns))
    write_export(tmp_path / "export.csv", 7, ids, labels, embeddings)
    assert len(forks) == 1
    expected = export_reference(7, ids, labels, embeddings)
    assert (tmp_path / "export.csv").read_bytes() == expected.encode()


def test_a_table_below_two_blocks_is_written_in_this_process(tmp_path, cpus, forks):
    # the grid_c8 benchmark's set-up CSV is 500 x 16
    cpus(2)
    write_csv(generate_synthetic(SyntheticSpec(n=500), 0), tmp_path / "data.csv")
    rows = rows_for(2, 16, 0) - 2
    write_csv(random_dataset(np.random.default_rng(0), rows, 16), tmp_path / "data.csv")
    assert forks == []


def made_to_fail(original, *args):
    raise ValueError("made to fail")


def die(original, *args):
    os._exit(3)


def send_then_die(original, *args):
    original(*args)
    os._exit(3)


@pytest.mark.parametrize(
    ("name", "failing", "error", "message"),
    [("_format_rows", made_to_fail, ValueError, "^made to fail$"),
     ("_format_rows", die, ChildProcessError, "^the worker of rows {} to {} of {} died$"),
     ("_send", send_then_die, ChildProcessError, "^the worker of rows {} to {} of {} died$")],
    ids=["raises", "dies", "dies-mid-text"],
)
def test_a_failing_table_worker_keeps_the_previous_file(
    tmp_path, cpus, in_workers, no_worker_left, name, failing, error, message
):
    cpus(2)
    in_workers(name, failing)
    path = tmp_path / "data.csv"
    path.write_text("previous\n")
    rows = rows_for(2, 16, 0)
    with pytest.raises(error, match=message.format(rows // 2, rows, path)) as raised:
        write_csv(random_dataset(np.random.default_rng(0), rows, 16), path)
    if error is ValueError:  # the worker sends its traceback
        assert "made to fail" in str(raised.value.__cause__)
    assert path.read_text() == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["data.csv"]


def test_a_table_worker_sends_its_block_as_bytes_messages_and_an_empty_one(
    tmp_path, monkeypatch, cpus, exit_here
):
    """The child's side of the fork, run here: os.fork returns 0, and the
    worker's pipe is a file. The worker holds one copy of its text, in the
    buffer it encodes each line into, and a message at a time: joining the
    lines, then encoding the joined string, peaked at about three copies
    here."""
    sent = tmp_path / "sent"
    write_fd = os.open(sent, os.O_WRONLY | os.O_CREAT)
    read_fd = os.open(sent, os.O_RDONLY)
    cpus(2)
    monkeypatch.setattr(os, "pipe", lambda: (read_fd, write_fd))
    monkeypatch.setattr(os, "fork", lambda: 0)
    rows = rows_for(2, 16, 1)
    dataset = random_dataset(np.random.default_rng(0), rows, 16)
    tracemalloc.start()
    try:
        with pytest.raises(exit_here) as exited:
            write_csv(dataset, tmp_path / "data.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        os.close(read_fd)
    assert exited.value.args == (0,)
    assert [p.name for p in tmp_path.iterdir()] == ["sent"]
    with sent.open("rb") as pipe:
        messages = [pickle.load(pipe)]
        while messages[-1] != (b"", None):
            messages.append(pickle.load(pipe))
        assert pipe.read() == b""
    assert all(type(chunk) is bytes and error is None for chunk, error in messages)
    chunks = [chunk for chunk, _ in messages]
    assert len(chunks) > 2 and all(0 < len(chunk) <= data_module._CHUNK for chunk in chunks[:-1])
    text = b"".join(chunks)
    lines = csv_reference(dataset).splitlines(keepends=True)
    assert text == "".join(lines[1 + rows // 2:]).encode()
    assert peak < 1.5 * len(text)


def test_a_failed_fork_closes_its_pipe_and_ends_the_workers_forked_before(
    tmp_path, monkeypatch, cpus, no_worker_left
):
    """no_worker_left fails the test on a pipe left open."""
    cpus(4)
    fork, calls = os.fork, []

    def fork_once():
        calls.append(None)
        if len(calls) > 1:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", fork_once)
    path = tmp_path / "data.csv"
    path.write_text("previous\n")
    with pytest.raises(BlockingIOError):
        write_csv(random_dataset(np.random.default_rng(0), rows_for(4, 16, 0), 16), path)
    assert len(calls) == 2
    assert path.read_text() == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["data.csv"]


# ---------------------------------------------------------------------------
# the loader gives the doubles of a plain list-of-rows parse
# ---------------------------------------------------------------------------


def reference_load(path):
    """The rows parsed cell by cell into lists, then one np.array each."""
    ids, labels, rows = [], [], []
    for line in path.read_text().splitlines()[1:]:
        row_id, *cells = line.split(",")
        ids.append(row_id)
        labels.append(float(cells[0]))
        rows.append([float(cell) for cell in cells[1:]])
    return np.array(rows, dtype=np.float64), np.array(labels, dtype=np.float64), tuple(ids)


@pytest.mark.parametrize("seed", range(12))
def test_load_csv_matches_a_list_of_rows_parse_bit_for_bit(tmp_path, seed):
    rng = np.random.default_rng(seed)
    n = [1, 2, 1, 40][seed % 4] if seed < 4 else int(rng.integers(1, 60))
    p = 1 if seed % 3 == 0 else int(rng.integers(1, 20))
    path = tmp_path / "data.csv"
    write_csv(random_dataset(rng, n, p), path)
    if seed % 2:  # cells in other spellings than repr
        text = path.read_text().replace("e-", "E-").replace(".0,", ".000,")
        path.write_text(text)
    assert_loads_as_reference(path)


def assert_loads_as_reference(path):
    features, labels, ids = reference_load(path)
    dataset = load_csv(path)
    assert dataset.ids == ids
    for got, want in ((dataset.features, features), (dataset.labels, labels)):
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.flags.c_contiguous and got.flags.owndata
        assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# a large CSV is parsed in row blocks by forked workers, to the same doubles
# ---------------------------------------------------------------------------


def read_rows_for(blocks, columns, parity):
    """The fewest rows of the given parity whose CSV of ``columns`` features
    the reader cuts into ``blocks`` blocks: it counts ``columns + 1`` cells
    (label and features) per newline, the header's included."""
    rows = -(-blocks * BLOCK // (columns + 1)) - 1
    return rows + (rows % 2 != parity)


def other_spellings(text):
    return text.replace("e-", "E-").replace("e+", "e").replace(".0,", ".000,")


def breaks_at_the_cut(text):
    """Line breaks other than "\\n" that str.splitlines splits on, on the
    three lines before and after the middle of the text, where the cut of
    two blocks is sought."""
    middle = text.index("\n", len(text) // 2)
    before = [text.rindex("\n", 0, middle)]
    while len(before) < 3:
        before.append(text.rindex("\n", 0, before[-1]))
    after = [middle]
    while len(after) < 3:
        after.append(text.index("\n", after[-1] + 1))
    chars = list(text)
    for at, mark in zip(sorted(before + after), "\x85\u2028" * 3):
        chars[at] = mark
    return "".join(chars)


@pytest.mark.parametrize(
    ("columns", "blocks", "usable", "parity", "spelling"),
    [(16, 2, 1, 0, None), (16, 2, 2, 1, None), (16, 2, 2, 0, None), (1, 2, 2, 1, None),
     (16, 3, 3, 0, None), (16, 4, 4, 1, None), (16, 2, 4, 0, None),
     (16, 2, 2, 0, other_spellings), (16, 3, 3, 1, "\r\n"), (16, 2, 2, 1, breaks_at_the_cut)],
    ids=["one-cpu", "odd", "even", "p1", "three-blocks", "four-blocks", "fewer-blocks-than-cpus",
         "other-spellings", "crlf", "other-breaks-at-the-cut"],
)
def test_load_csv_in_blocks_matches_a_list_of_rows_parse_bit_for_bit(
    tmp_path, cpus, forks, no_worker_left, columns, blocks, usable, parity, spelling
):
    cpus(usable)
    # six newlines fewer where other line breaks stand in for them
    rows = read_rows_for(blocks, columns, parity) + 6 * (spelling is breaks_at_the_cut)
    path = tmp_path / "data.csv"
    write_csv(random_dataset(np.random.default_rng(rows), rows, columns), path)
    if spelling == "\r\n":
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    elif spelling is not None:
        path.write_text(spelling(path.read_text()))
    forks.clear()  # the writer's
    assert_loads_as_reference(path)
    assert len(forks) == min(blocks, usable) - 1


def second_block_line(path):
    """The line number of the first row of the second of two blocks: the
    reader cuts just after the first newline from the middle of the text."""
    text = path.read_text()
    return text.count("\n", 0, text.index("\n", len(text) // 2) + 1) + 1


def test_a_csv_below_two_blocks_is_parsed_in_this_process(tmp_path, cpus, forks):
    # the grid_c8 benchmark's set-up CSV is 500 x 16
    cpus(2)
    path = tmp_path / "data.csv"
    write_csv(generate_synthetic(SyntheticSpec(n=500), 0), path)
    assert load_csv(path).n == 500
    rows = read_rows_for(2, 16, 0) - 2
    write_csv(random_dataset(np.random.default_rng(0), rows, 16), path)
    assert load_csv(path).n == rows
    assert forks == []  # the writer's included


def with_defects(path, defects):
    """Rewrite the CSV at ``path`` with each ``{line: edit}`` applied to its
    1-based line: ``edit(line, lines)`` gives the new text."""
    lines = path.read_text().splitlines()
    for lineno, edit in defects.items():
        lines[lineno - 1] = edit(lines[lineno - 1], lines)
    path.write_text(joined(lines))


def short(line, lines):
    return line.rsplit(",", 1)[0]


def nan(line, lines):
    row_id, _, rest = line.partition(",")
    return f"{row_id},nan,{rest.partition(',')[2]}"


def letters(line, lines):
    return line.replace(",", ",zebra", 1)


def separator(line, lines):
    row_id, _, rest = line.partition(",")
    return f"{row_id},1_0,{rest.partition(',')[2]}"


def first_id(line, lines):
    return lines[1].partition(",")[0] + "," + line.partition(",")[2]


def both(*edits):
    def edit(line, lines):
        for one in edits:
            line = one(line, lines)
        return line

    return edit


# a line number: 5 lies in the first block, -k is the k-th line from the
# end, in the last block, and 0.5 the middle line, in the middle of three
DEFECTS = {
    "nan-then-short-row": ({5: nan, -5: short}, 5, "non-finite cell"),
    "short-row-then-nan": ({0.5: short, -5: nan}, 0.5, "expected 18 columns, got 17"),
    "first-block-id": ({-5: first_id}, -5, "duplicate id 'r0'"),
    "first-block-id-then-letters": ({-5: first_id, -3: letters}, -5, "duplicate id 'r0'"),
    "letters-then-first-block-id": ({-5: letters, -3: first_id}, -5, "non-numeric cell"),
    "first-block-id-with-letters": ({-5: both(first_id, letters)}, -5, "duplicate id 'r0'"),
    "short-row-with-first-block-id": ({-5: both(first_id, short)}, -5,
                                      "expected 18 columns, got 17"),
    "separator-in-the-last-block": ({-2: separator}, -2, "non-numeric cell"),
}


@pytest.mark.parametrize("usable", [2, 3])
@pytest.mark.parametrize("case", list(DEFECTS))
def test_a_defect_in_any_block_is_the_first_in_line_order(
    tmp_path, cpus, forks, no_worker_left, usable, case
):
    """The error of a blocked load is the one a single process raises."""
    edits, line, message = DEFECTS[case]
    rows = read_rows_for(usable, 16, 0)
    path = tmp_path / "data.csv"
    write_csv(random_dataset(np.random.default_rng(0), rows, 16), path)
    number = {5: 5, 0.5: rows // 2, **{-k: rows + 2 - k for k in range(1, 9)}}
    with_defects(path, {number[at]: edit for at, edit in edits.items()})
    line = number[line]
    forks.clear()  # the writer's
    errors = []
    for count in (1, usable):
        cpus(count)
        with pytest.raises(ParseError) as raised:
            load_csv(path)
        errors.append(str(raised.value))
    assert errors[0] == errors[1] == f"{path}: line {line}: {message}"
    assert len(forks) == usable - 1


@pytest.mark.parametrize(
    ("failing", "error", "message"),
    [(made_to_fail, ValueError, "^made to fail$"),
     (die, ChildProcessError, "^the worker of the rows from line {} of {} died$")],
    ids=["raises", "dies"],
)
def test_a_failing_parse_worker_fails_the_load(
    tmp_path, cpus, in_workers, no_worker_left, failing, error, message
):
    cpus(2)
    in_workers("_parse_floats", failing)
    rows = read_rows_for(2, 16, 0)
    path = tmp_path / "data.csv"
    write_csv(random_dataset(np.random.default_rng(0), rows, 16), path)
    with pytest.raises(error, match=message.format(second_block_line(path), path)) as raised:
        load_csv(path)
    if error is ValueError:  # the worker sends its traceback
        assert "made to fail" in str(raised.value.__cause__)


def test_a_parse_worker_sends_its_block_s_ids_and_doubles(tmp_path, monkeypatch, cpus, exit_here):
    """The child's side of the fork, run here: os.fork returns 0, and the
    worker's pipe is a file."""
    sent = tmp_path / "sent"
    write_fd = os.open(sent, os.O_WRONLY | os.O_CREAT)
    read_fd = os.open(sent, os.O_RDONLY)
    cpus(2)
    monkeypatch.setattr(os, "pipe", lambda: (read_fd, write_fd))
    monkeypatch.setattr(os, "fork", lambda: 0)
    rows = read_rows_for(2, 16, 1)
    path = tmp_path / "data.csv"
    write_csv(random_dataset(np.random.default_rng(0), rows, 16), path)
    try:
        with pytest.raises(exit_here) as exited:
            load_csv(path)
    finally:
        os.close(read_fd)
    assert exited.value.args == (0,)
    with sent.open("rb") as pipe:
        (ids, values), error = pickle.load(pipe)
        assert pipe.read() == b""
    first = second_block_line(path) - 2  # a 0-based row
    features, labels, all_ids = reference_load(path)
    assert error is None and ids == list(all_ids[first:])
    assert values == np.column_stack((labels, features))[first:].tobytes()


# ---------------------------------------------------------------------------
# memory: writers hold one row, the loader one buffer of doubles
# ---------------------------------------------------------------------------


def test_embedding_export_of_10000_rows_peaks_below_1_mb(tmp_path):
    # joining the whole file into one string peaked at about 16 MB here
    rng = np.random.default_rng(0)
    ids = tuple(f"s{i:05d}" for i in range(10_000))
    labels, embeddings = rng.normal(40.0, 15.0, size=10_000), rng.standard_normal((10_000, 32))
    peak = peak_bytes(
        lambda: write_export(tmp_path / "export.csv", 1, ids, labels, embeddings)
    )
    assert peak < 1 * MB


def test_write_csv_of_10000_rows_peaks_below_1_mb(tmp_path):
    # joining the whole file into one string peaked at about 8.3 MB here
    dataset = generate_synthetic(SyntheticSpec(n=10_000), 0)
    assert peak_bytes(lambda: write_csv(dataset, tmp_path / "data.csv")) < 1 * MB


def test_load_csv_peaks_below_two_and_a_half_times_the_file_size(tmp_path):
    # a Python float per cell, held in one list per row, peaked at about
    # 3.7 times the file size here
    path = tmp_path / "data.csv"
    write_csv(generate_synthetic(SyntheticSpec(n=10_000), 0), path)
    assert peak_bytes(lambda: load_csv(path)) < 2.5 * path.stat().st_size


@pytest.mark.parametrize("usable", [1, 2])
def test_train_holds_at_most_two_exports_whatever_their_number(
    tmp_path, capsys, cpus, no_worker_left, usable
):
    """An export at each of 6 epochs peaks less than two exports' embeddings
    above one export at the last epoch: the export in flight and the one
    just made. Keeping every export until training ended held six."""
    cpus(usable)
    rows, embed_dim = 3000, 32
    data = tmp_path / "data.csv"
    write_csv(generate_synthetic(SyntheticSpec(n=rows), 0), data)
    peaks, codes = {}, []
    for exports in ("6", "1,2,3,4,5,6"):
        out_dir = tmp_path / exports.replace(",", "")
        argv = ["train", "--data", str(data), "--out-dir", str(out_dir), "--loss", "rnc",
                "--epochs", "6", "--batch-size", "100", "--hidden-dims", "8",
                "--embed-dim", str(embed_dim), "--export-epochs", exports]
        peaks[exports] = peak_bytes(lambda: codes.append(main(argv)))
    assert codes == [EXIT_OK, EXIT_OK]
    assert capsys.readouterr().out.count(" 6 embedding export(s)\n") == 1
    assert peaks["1,2,3,4,5,6"] - peaks["6"] < 2 * rows * embed_dim * 8
