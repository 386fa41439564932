"""The rwsnsim command line: run a grid from a config, report on its outputs."""

import re

import pytest

from rwsnsim.cli import CONFIG_SCHEMA, main
from rwsnsim.eqat import TxProbDesign
from rwsnsim.experiments import _SPEC_SCHEMA, AGG_COLUMNS


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


@pytest.mark.parametrize("n_nodes", [3, 4], ids=["exact", "myopic"])
def test_unbuildable_model_fails_its_scenario_once(tmp_path, capsys, n_nodes):
    # valid params, but 2,000 arrival opportunities per slot: the arrival law
    # overflows a float, so no ehmdp model can be built, whichever mode the
    # budget picks; the failure names the cause, and the fq rows are still written
    cfg = tmp_path / "grid.ini"
    cfg.write_text(f"[experiment]\nn_nodes = {n_nodes}\nstrategies = ehmdp, fq\nslots = 2\n"
                   "seeds = 0\n[network]\narrival_period = 5e-6\n")
    out = tmp_path / "out"
    assert main(["run", str(cfg), str(out)]) == 1
    failed = [line for line in capsys.readouterr().err.splitlines() if line.startswith("failed: ")]
    assert len(failed) == 1 and "'strategy': 'ehmdp'" in failed[0], failed
    assert "arrivals_per_slot = 2000" in failed[0], failed
    rows = (out / "raw.csv").read_text().splitlines()[1:]
    assert [row.split(",")[3] for row in rows] == ["fq"]


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


# a well-formed row, but for a throughput_pps_mean cell "x"
BAD_CELL_ROW = ",".join({**dict.fromkeys(AGG_COLUMNS, "1"), "design": "-", "strategy": "fq",
                         "throughput_pps_mean": "x"}.values())


@pytest.mark.parametrize("text,message", [
    ("", "unexpected aggregate header ''"),
    ("HEADER\n2,10,-,fq,1\n", f"line 2 has 5 cells, not {len(AGG_COLUMNS)}"),
    (f"HEADER\n{BAD_CELL_ROW}\n",
     "line 2, column throughput_pps_mean: could not convert string to float: 'x'"),
], ids=["empty", "short-row", "bad-cell"])
def test_report_on_malformed_aggregate_exits_2_once(tmp_path, capsys, text, message):
    path = tmp_path / "aggregate.csv"
    path.write_text(text.replace("HEADER", ",".join(AGG_COLUMNS)))
    with pytest.raises(SystemExit) as exc:
        main(["report", str(tmp_path)])
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"rwsnsim: error: {path}: {message}\n"


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


@pytest.mark.parametrize("entry,message", [
    ("minislot_len = 0", "minislot_len must be positive and finite"),
    ("minislot_len = inf", "minislot_len must be positive and finite"),
    ("workers = -3", "workers must be >= 1"),
    ("seeds = -1, -2", "seeds must be >= 0"),
    ("budget = -5", "budget must be >= 0 (0 runs ehmdp in myopic mode)"),
    ("seeds = 0-4, 9-7", "{cfg}: [experiment] seeds = '0-4, 9-7': descending range '9-7'"),
    ("seeds = 0-2, 1", "repeated seeds: [1]"),
    ("designs = sigmoid, exp:1, sigmoid", "repeated designs: ['sigmoid']"),
    ("designs = exp:nan, exp:1",
     "design token 'exp:nan': exponential rates must be positive and finite"),
    ("[channel]\nmax_dist = inf", "[channel] max_dist must be positive and finite"),
    ("[channel]\nmin_dist = 50\nmax_dist = 40", "[channel] min_dist must be <= max_dist"),
    ("n_nodes = -1, 0", "n_nodes must be >= 1"),
    ("n_nodes = 2, -3\nt_hat = 0, 10", "n_nodes must be >= 1; t_hat must be >= 1"),
    ("[network]\nbs_power = -1", "bs_power must be non-negative and finite"),
    ("[network]\nvi_tol = nan\nqueue_cap = 0",
     "queue_cap must be >= 1; vi_tol must be positive and finite"),
    ("[eqat]\nthreshold = 0.05", "{cfg}: unknown config entries: [eqat] threshold"),
])
def test_bad_spec_value_exits_2_once(tmp_path, capsys, entry, message):
    # a 2 x 2 grid unless the entry sets it: the value is refused once, not
    # once per scenario
    grid = "".join(f"{key} = {value}\n"
                   for key, value in (("n_nodes", "2, 3"), ("t_hat", "10, 20"))
                   if f"{key} =" not in entry)
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[experiment]\n{grid}strategies = fq\nslots = 10\n{entry}\n")
    with pytest.raises(SystemExit) as exc:
        main(["run", str(cfg), str(tmp_path / "out")])
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"rwsnsim: error: {message.format(cfg=cfg)}\n"
    assert not (tmp_path / "out").exists()


def test_help_text_and_spec_follow_the_config_schema():
    # the schema itself is checked against the declarations in
    # test_experiments.py::TestSchema
    for section, keys in _SPEC_SCHEMA.items():
        assert f"[{section}]" in CONFIG_SCHEMA
        for key in keys:
            assert re.search(rf"\b{key}\b", CONFIG_SCHEMA), (section, key)
    # one example of each documented design form parses, and labels as written
    examples = {"sigmoid": "sigmoid", "exp:RATE": "exp:1.5", "exp:RQ:RE": "exp:1.5:0.25",
                "gamma:SHAPE:SCALE": "gamma:2:0.5"}
    forms = re.search(r"comma list: (.*?)\n\s*strategies", CONFIG_SCHEMA, re.S).group(1)
    assert [f.strip() for f in forms.split("|")] == list(examples)
    for token in examples.values():
        assert TxProbDesign.parse(token).label == token
