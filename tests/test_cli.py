"""The rwsnsim command line: run a grid from a config, report on its outputs."""

import pytest

from rwsnsim.cli import main


def test_run_then_report(tmp_path, capsys):
    cfg = tmp_path / "grid.ini"
    cfg.write_text(
        "[experiment]\n"
        "n_nodes = 2\n"
        "t_hat = 10, 20\n"
        "strategies = fq, rs\n"
        "slots = 200\n"
        "seeds = 0-1\n"
    )
    out = tmp_path / "out"
    assert main(["run", str(cfg), str(out)]) == 0
    assert {p.name for p in out.iterdir()} == {"raw.csv", "aggregate.csv", "manifest.json"}
    assert len((out / "raw.csv").read_text().splitlines()) == 1 + 2 * 2 * 2
    capsys.readouterr()

    assert main(["report", str(out)]) == 0
    text = capsys.readouterr().out
    assert "scenario N=2 T=10:" in text
    assert "trend fq N=2 over T=[10, 20]" in text


def test_invalid_input_exits_with_one_message(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[experiment]\nstrategies = fq, greedy\n")
    for argv in (["run", str(tmp_path / "missing.ini"), str(tmp_path / "out")],
                 ["run", str(cfg), str(tmp_path / "out")],
                 ["report", str(tmp_path)]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code != 0
        err = capsys.readouterr().err
        assert err.startswith("rwsnsim: error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()


def test_config_typos_exit_2_naming_each(tmp_path, capsys):
    cfg = tmp_path / "typo.ini"
    cfg.write_text("[experiment]\nstrategy = fq\nslots = 10\n[netwrok]\narrival_prob = 0.1\n")
    with pytest.raises(SystemExit) as exc:
        main(["run", str(cfg), str(tmp_path / "out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("rwsnsim: error: ") and err.count("\n") == 1, err
    assert "[experiment] strategy" in err and "[netwrok]" in err
    assert not (tmp_path / "out").exists()
