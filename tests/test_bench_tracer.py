"""The benchmark's span tracer (tdbench/spans.py) installs over the CLI and
leaves its output alone."""

from pathlib import Path

from torusdirac import cli

TDBENCH = str(Path(__file__).resolve().parent.parent / "tdbench")


def test_tracer_installs_over_a_sweep_and_restores_the_cli(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(TDBENCH)
    import spans

    args = ["--no-timestamp", "sweep", "alpha", "0.5:2.5:20"]
    assert cli.main(["--out", str(tmp_path / "plain"), *args]) == 0
    pool = cli.ThreadPoolExecutor
    tracer = spans.Tracer()
    try:
        tracer.install()
        code = cli.main(["--out", str(tmp_path / "traced"), *args])
    finally:
        tracer.uninstall()
    assert code == 0, capsys.readouterr().err
    assert any(span[2] == "cli.cmd_sweep" for span in tracer.spans)
    assert ((tmp_path / "traced" / "sweep_alpha.csv").read_bytes()
            == (tmp_path / "plain" / "sweep_alpha.csv").read_bytes())
    assert cli.ThreadPoolExecutor is pool
