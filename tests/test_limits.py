"""Every row of ``limits.py`` in-process, and the caps README names."""

from pathlib import Path

import pytest

from eqtransfer import cli, jsonio
import limits

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def out_of_memory(obj):
    raise MemoryError


@pytest.mark.parametrize("row", limits.ROWS, ids=lambda row: row.name)
def test_row(capsys, tmp_path, monkeypatch, row):
    if row.memory_kb is not None and row.code:
        # this process takes no address-space limit: the loader runs out
        monkeypatch.setattr(jsonio, "from_obj", out_of_memory)

    def run(row):
        size = row.size if row.tier1_size is None else row.tier1_size
        code = cli.main(limits.command(row, size, str(tmp_path)))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    code, out, err = run(row)
    assert limits.problems(row, code, out, err) == []
    if row.same_as:
        assert out == run(limits.ROW[row.same_as])[1]


def test_rows_are_named_once_and_the_corpus_is_listed():
    assert len(limits.ROW) == len(limits.ROWS)
    assert limits.CORPUS
    names = [row.name for row in limits.ROWS]
    for row in limits.ROWS:
        assert set(row.caps) <= set(limits.CAPS), row.name
        if row.same_as:
            assert names.index(row.same_as) < names.index(row.name)


@pytest.mark.parametrize("name", limits.CAPS)
def test_cap_in_readme_and_probed_from_both_sides(name):
    value, load = limits.CAPS[name]
    assert f"`{name}` = {value:,}" in README
    counts = [load(row.size) for row in limits.ROWS if name in row.caps]
    assert any(count <= value for count in counts)
    assert any(count > value for count in counts)
