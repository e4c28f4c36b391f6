from rankforge.artifacts import write_json, write_jsonl, write_table


def test_writers_pin_their_bytes(tmp_path):
    write_json(tmp_path / "new" / "v.json", {"b": [1, 2.5], "a": "\u00e9", "c": {}})
    assert (tmp_path / "new" / "v.json").read_bytes() == (
        b'{\n  "a": "\\u00e9",\n  "b": [\n    1,\n    2.5\n  ],\n  "c": {}\n}\n')
    write_jsonl(tmp_path / "v.jsonl", ({"b": 1, "a": None}, {"c": [1, 2.0]}))
    assert (tmp_path / "v.jsonl").read_bytes() == b'{"a": null, "b": 1}\n{"c": [1, 2.0]}\n'
    write_table(tmp_path / "v.csv", ["x", "y z"], [[1, "a,b"], [0.5, 'q"'], []])
    assert (tmp_path / "v.csv").read_bytes() == b'x,y z\r\n1,"a,b"\r\n0.5,"q"""\r\n\r\n'
