"""Tests for the atomic line writer shared by every output file."""

import os
import stat

import pytest

from chebymargin.fileio import check_writable, write_bytes_atomic, write_lines_atomic


def test_lines_end_with_newline(tmp_path):
    path = tmp_path / "out.csv"
    write_lines_atomic(str(path), iter(["a,b", "", "c"]))
    assert path.read_bytes() == b"a,b\n\nc\n"
    write_lines_atomic(str(path), [])
    assert path.read_bytes() == b""


def test_blocks_written_as_they_are(tmp_path):
    path = tmp_path / "out.bin"
    write_bytes_atomic(str(path), iter([b"", bytearray(b"a\n"), memoryview(b"\xffb"), b""]))
    assert path.read_bytes() == b"a\n\xffb"


def test_writable_check_writes_nothing(tmp_path):
    """A writable new or existing target passes, and no file is made or
    changed."""
    (tmp_path / "old.csv").write_bytes(b"old\n")
    check_writable(str(tmp_path / "old.csv"))
    check_writable(str(tmp_path / "new.csv"))
    assert os.listdir(tmp_path) == ["old.csv"]
    assert (tmp_path / "old.csv").read_bytes() == b"old\n"


def test_empty_path_is_refused_before_any_work(tmp_path, monkeypatch):
    """``""`` fails as ``open("")`` does in both helpers, before a block is
    asked for, and no file is made in or next to the working directory."""
    (tmp_path / "cwd").mkdir()
    monkeypatch.chdir(tmp_path / "cwd")
    asked = []

    def blocks():
        asked.append(None)
        yield b"x\n"

    for call in (check_writable, lambda path: write_bytes_atomic(path, blocks())):
        with pytest.raises(FileNotFoundError) as info:
            call("")
        assert str(info.value) == "[Errno 2] No such file or directory: ''"
    assert (asked, os.listdir(tmp_path), os.listdir(tmp_path / "cwd")) == ([], ["cwd"], [])


def test_link_to_a_directory_is_writable(tmp_path):
    """The rename replaces a link to a directory, so the check passes it."""
    (tmp_path / "d").mkdir()
    (tmp_path / "link").symlink_to(tmp_path / "d")
    check_writable(str(tmp_path / "link"))
    write_lines_atomic(str(tmp_path / "link"), ["x"])
    assert (tmp_path / "link").read_bytes() == b"x\n"
    assert os.listdir(tmp_path / "d") == []


def test_long_stream_written_whole(tmp_path):
    """More lines than one written chunk."""
    path = tmp_path / "out.csv"
    write_lines_atomic(str(path), map(str, range(5000)))
    assert path.read_text(encoding="utf-8") == "".join(f"{i}\n" for i in range(5000))


@pytest.mark.parametrize("fail_after", [0, 1, 5000])
def test_failed_write_keeps_old_target_and_no_temp(tmp_path, fail_after):
    path = tmp_path / "out.csv"
    path.write_bytes(b"old,bytes\n")

    def lines():
        for i in range(fail_after):
            yield str(i)
        raise RuntimeError("formatting failed")

    with pytest.raises(RuntimeError, match="formatting failed"):
        write_lines_atomic(str(path), lines())
    assert path.read_bytes() == b"old,bytes\n"
    assert os.listdir(tmp_path) == ["out.csv"]


def test_failed_first_write_leaves_no_file(tmp_path):
    with pytest.raises(TypeError):
        write_lines_atomic(str(tmp_path / "out.csv"), [1.5])
    assert os.listdir(tmp_path) == []


def test_open_error_names_the_target_not_the_temp_file(tmp_path):
    target = tmp_path / "missing" / "c.csv"
    with pytest.raises(FileNotFoundError) as info:
        write_lines_atomic(str(target), ["a"])
    assert info.value.filename == str(target)
    assert str(target) in str(info.value)
    assert ".c.csv." not in str(info.value)



def test_rename_error_names_the_target_not_the_temp_file(tmp_path):
    """A directory in the target's place fails the final rename; the error
    names the target and the temp file is gone."""
    target = tmp_path / "d"
    target.mkdir()
    with pytest.raises(IsADirectoryError) as info:
        write_lines_atomic(str(target), ["a"])
    assert info.value.filename == str(target)
    assert str(target) in str(info.value)
    assert ".d." not in str(info.value)
    assert os.listdir(tmp_path) == ["d"]
    assert os.listdir(target) == []

def test_interleaved_writers_keep_their_own_temp_files(tmp_path):
    """A second writer to the same path, running while the first is still
    producing lines, neither clobbers nor removes the first one's temp file."""
    path = tmp_path / "out.csv"

    def outer_lines():
        yield "outer 1"
        write_lines_atomic(str(path), ["inner"])
        assert path.read_bytes() == b"inner\n"
        yield "outer 2"

    write_lines_atomic(str(path), outer_lines())
    assert path.read_bytes() == b"outer 1\nouter 2\n"
    assert os.listdir(tmp_path) == ["out.csv"]


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=oct)
def test_mode_matches_plain_open(tmp_path, umask):
    old = os.umask(umask)
    try:
        with open(tmp_path / "plain.csv", "w", encoding="utf-8") as fh:
            fh.write("x\n")
        write_lines_atomic(str(tmp_path / "atomic.csv"), ["x"])
    finally:
        os.umask(old)
    plain = stat.S_IMODE(os.stat(tmp_path / "plain.csv").st_mode)
    atomic = stat.S_IMODE(os.stat(tmp_path / "atomic.csv").st_mode)
    assert atomic == plain == 0o666 & ~umask


def test_relative_path(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_lines_atomic("out.csv", ["x"])
    assert (tmp_path / "out.csv").read_bytes() == b"x\n"
    assert os.listdir(tmp_path) == ["out.csv"]
