"""The rwsnsim command line: run a grid from a config, report on its outputs."""

import inspect
import re
from dataclasses import fields

import pytest

from rwsnsim.cli import CONFIG_SCHEMA, main
from rwsnsim.experiments import _SPEC_SCHEMA, ExperimentSpec
from rwsnsim.simulator import STRATEGIES


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


@pytest.mark.parametrize("section,entry", [("eqat", "backoff_window = 0"),
                                           ("rc", "contention_prob = 1.7"),
                                           ("eqat", "alpha = -0.5")])
def test_bad_strategy_value_exits_2_once(tmp_path, capsys, section, entry):
    # four seeds: the value is refused once, before any run, not once per task
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[experiment]\nn_nodes = 2\nstrategies = eqat, rc\nslots = 10\n"
                   f"seeds = 0-3\n[{section}]\n{entry}\n")
    with pytest.raises(SystemExit) as exc:
        main(["run", str(cfg), str(tmp_path / "out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"rwsnsim: error: [{section}] {entry.split()[0]}"), err
    assert err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()


def test_help_text_and_spec_follow_the_config_schema():
    for section, keys in _SPEC_SCHEMA.items():
        assert f"[{section}]" in CONFIG_SCHEMA
        for key in keys:
            assert re.search(rf"\b{key}\b", CONFIG_SCHEMA), (section, key)
    spec_fields = {f.name for f in fields(ExperimentSpec)}
    assert set(_SPEC_SCHEMA["experiment"]) <= spec_fields
    assert set(_SPEC_SCHEMA) - {"experiment"} <= spec_fields
    for name in ("eqat", "rc"):
        params = set(inspect.signature(STRATEGIES[name]).parameters) - {"design"}
        assert set(_SPEC_SCHEMA[name]) == params, name
