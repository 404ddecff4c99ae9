"""``tools/output_digests.py``: its lines and the digest of a registry directory."""

from pathlib import Path

import pytest
from test_cli import readme_commands
from test_digests import load_tool


def write_files(root, names):
    for name in names:
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(name.encode())


def test_registry_digest_hashes_paths_and_bytes_in_path_order(tmp_path):
    tool = load_tool()
    a, b = tmp_path / "a", tmp_path / "b"
    write_files(a, ["index.txt", "pred-1/1.lcmp", "pred-1/2.lcmp"])
    write_files(b, ["pred-1/2.lcmp", "pred-1/1.lcmp", "index.txt"])
    assert tool.registry_digest(a) == tool.registry_digest(b)
    (b / "pred-1" / "2.lcmp").write_bytes(b"pred-1/2.lcmq")
    assert tool.registry_digest(a) != tool.registry_digest(b)
    (b / "pred-1" / "2.lcmp").write_bytes(b"pred-1/2.lcmp")
    (b / "pred-1" / "2.lcmp").rename(b / "pred-1" / "3.lcmp")
    assert tool.registry_digest(a) != tool.registry_digest(b)


def test_each_line_is_label_and_three_digests(monkeypatch, capsys):
    tool = load_tool()
    texts = tool.scenario_texts(42)[-1:]
    monkeypatch.setattr(tool, "scenario_texts", lambda seed: texts)
    assert tool.main(["--seed", "42"]) == 0
    label, *digests = capsys.readouterr().out.split()
    assert label == texts[0][0]
    assert [len(d) for d in digests] == [64, 64, 64]
    assert all(set(d) <= set("0123456789abcdef") for d in digests)


CHEAP = (
    ("train-predictor", "train predictor --seed 3 --slots 60 --antennas 8 --out pred.lcmp"),
    ("train-autoencoder", "train autoencoder --seed 4 --slots 64 --antennas 8 --latent 2 "
                          "--bits 2 --out-encoder enc/e.lcmp --out-decoder dec.lcmp"),
)


def test_cli_lines_do_not_depend_on_the_working_directory(tmp_path):
    tool = load_tool()
    first, second = tmp_path / "a", tmp_path / "deeper" / "b"
    for work in (first, second):
        work.mkdir(parents=True)
    lines = tool.cli_lines(first, CHEAP)
    assert lines == tool.cli_lines(second, CHEAP)
    assert [line.split()[0] for line in lines] == ["cli/train-predictor", "cli/train-autoencoder"]
    assert [[part.split("=")[0] for part in line.split()[2:]] for line in lines] == [
        ["pred.lcmp"], ["dec.lcmp", "enc/e.lcmp"]]


def test_one_byte_of_stdout_or_of_a_written_file_moves_the_line(tmp_path, monkeypatch):
    tool = load_tool()

    def fake_main(stdout, data):
        def main(argv):
            print(stdout)
            Path(argv[0]).write_bytes(data)
            return 0
        return main

    lines = []
    for i, (stdout, data) in enumerate([("out", b"\x00\x01"), ("ouT", b"\x00\x01"),
                                        ("out", b"\x00\x02")]):
        monkeypatch.setattr(tool.cli, "main", fake_main(stdout, data))
        work = tmp_path / str(i)
        work.mkdir()
        [line] = tool.cli_lines(work, [("fake", "written.bin")])
        lines.append(line.split())
    (label, out, written), (_, out_b, written_b), (_, out_c, written_c) = lines
    assert label == "cli/fake" and written.startswith("written.bin=")
    assert out_b != out and written_b == written
    assert out_c == out and written_c != written


def test_a_failing_command_raises_with_its_stderr(tmp_path):
    with pytest.raises(RuntimeError, match="drift.cfg exited 2: error: bad magic"):
        load_tool().cli_lines(tmp_path, [("bad", "eval sgcs --model drift.cfg")])


def test_the_cli_commands_include_every_readme_command():
    commands = [command.split() for _, command in load_tool().CLI_COMMANDS]
    readme = readme_commands("Run it:", "Inspect the model store:", "Sweep a config key:",
                             "Train and evaluate models outside the loop:",
                             "Two-sided collaboration:")
    assert commands[:len(readme)] == readme
