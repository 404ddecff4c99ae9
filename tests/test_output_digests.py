"""``tools/output_digests.py``: its lines and the digest of a registry directory."""

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
