"""README is a user guide that runs.

Its `python` block, the library sketch, is executed as it stands, so its
asserts hold.  Every line of its CLI tour (the `sh` block under "CLI tour")
runs through ``cli.run`` in a directory holding a copy of ``channels/``:
``stegomail …`` and ``PYTHONPATH=src python -m stegomail …`` call the CLI,
and the tour's ``echo`` and ``awk`` lines are done in Python.  A line of
any other form fails, so no command enters the tour without being run.
The ``Install and test`` block is the one `sh` block not run.
"""

import re
import shlex
import shutil
from pathlib import Path

import pytest

from stegomail.cli import run

REPO = Path(__file__).resolve().parent.parent
README = (REPO / "README.md").read_text(encoding="utf-8")

_ECHO = re.compile(r"echo (\S+) > (\S+)")
_AWK = re.compile(r"""awk -F'\\t' '\$3 == "([^"]+)"' (\S+) > (\S+)""")
_CLI = re.compile(r"(?:stegomail|PYTHONPATH=src python -m stegomail) (.+)")
_EMBEDDED = re.compile(r"embedded (\d+) bits into (\d+) mails \((\d+) channel draws\)")


def _sections(text: str) -> dict[str, str]:
    """Each `## ` section's body, by heading."""
    parts = re.split(r"^## (.+)$", text, flags=re.MULTILINE)
    return dict(zip(parts[1::2], parts[2::2]))


def _blocks(text: str, lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```$", text, flags=re.MULTILINE | re.DOTALL)


def _commands(block: str) -> list[str]:
    """The block's shell lines, `\\` continuations joined, comments and blanks dropped."""
    lines = (line.strip() for line in re.sub(r"\\\n\s*", "", block).splitlines())
    return [line for line in lines if line and not line.startswith("#")]


def test_only_the_tour_and_the_install_block_are_shell():
    shell = {name for name, body in _sections(README).items() if _blocks(body, "sh")}
    assert shell == {"Install and test", "CLI tour"}


def test_cli_tour_runs(tmp_path, monkeypatch, capsys):
    shutil.copytree(REPO / "channels", tmp_path / "channels")
    monkeypatch.chdir(tmp_path)
    (block,) = _blocks(_sections(README)["CLI tour"], "sh")
    message, extracted, embedded = None, [], []
    for line in _commands(block):
        if m := _ECHO.fullmatch(line):
            message = m[1]
            Path(m[2]).write_text(message + "\n")
        elif m := _AWK.fullmatch(line):
            address, source, target = m.groups()
            rows = Path(source).read_text().splitlines(keepends=True)
            Path(target).write_text("".join(row for row in rows
                                            if row.rstrip("\n").split("\t")[2] == address))
        elif m := _CLI.fullmatch(line):
            argv = shlex.split(m[1])
            assert run(argv) == 0, line
            out = capsys.readouterr().out
            if argv[0] == "extract":
                extracted.append(out.strip())
            elif argv[0] == "embed":
                embedded.append(_EMBEDDED.match(out).groups())
        else:
            pytest.fail(f"README tour line the test cannot run: {line}")
    assert message == "deadbeef"
    assert extracted == [message, message]
    # One document and one channel draw per hidden bit.
    assert embedded == [(str(4 * len(message)),) * 3]


def test_library_sketch_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (sketch,) = _blocks(README, "python")
    exec(compile(sketch, "README.md", "exec"), {"__name__": "readme"})


def test_layout_lists_each_module_once_in_a_short_row():
    rows = re.findall(r"^\| `stegomail\.(\w+)` \|.*$", _sections(README)["Layout"],
                      flags=re.MULTILINE)
    modules = {path.stem for path in (REPO / "src" / "stegomail").glob("*.py")}
    assert sorted(rows) == sorted(modules - {"__init__", "__main__"})
    for row in re.findall(r"^\| `stegomail\..*$", README, flags=re.MULTILINE):
        assert len(row) <= 200, row


def test_readme_names_no_private_identifier():
    assert re.findall(r"(?<!\w)_[A-Za-z]\w*", README) == []
