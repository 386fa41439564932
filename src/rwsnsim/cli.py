"""Command line: run an experiment grid from a config file, or report on one.

    rwsnsim run CONFIG OUTDIR   run the grid CONFIG describes and write
                                raw.csv, aggregate.csv and manifest.json
                                (and traces.csv when tracing) to OUTDIR
    rwsnsim report OUTDIR       print OUTDIR's strategy rankings per scenario,
                                with where the slots went, and the trends
                                over slot length (from its aggregate.csv)

`run` exits 1 when a scenario or a run failed; the outputs of the rest are
still written and every failure is listed on standard error.
"""

from __future__ import annotations

import argparse
import configparser
import sys
import textwrap
from pathlib import Path

from .experiments import (_SPEC_SCHEMA, read_agg_csv, report, run_experiment, spec_from_config,
                          write_outputs)
from .simulator import STRATEGIES


def _section(name: str, text: str) -> str:
    """Section `name`'s help entry: `text`, then its declared keys."""
    return textwrap.fill(f"{text}: {', '.join(_SPEC_SCHEMA[name])}", 78, break_on_hyphens=False,
                         initial_indent=f"  [{name}]".ljust(16), subsequent_indent=" " * 16)


CONFIG_SCHEMA = f"""\
config file (INI; every section and key is optional, any other is an error;
the keys are the declared fields and parameters below, each value converted
by its declared type):
  [experiment]  n_nodes, t_hat, seeds   comma lists or dash ranges ("0-4, 7")
                designs                 comma list: sigmoid | exp:RATE |
                                        exp:RQ:RE | gamma:SHAPE:SCALE
                strategies              comma list of {', '.join(STRATEGIES)}
                slots, budget, workers  integers (budget: joint states for an
                                        exact ehmdp solve)
                minislot_len            seconds; slot length is t_hat * this
                trace                   boolean: also write traces.csv
{_section("network", "NetworkParams fields but n_nodes and slot_len, which come from "
                     "[experiment]; the channel gains as a comma list, one gain per node")}
{_section("channel", "draw_channel_gains parameters, for the path-loss draw of the gains "
                     "when [network] gives none")}
{_section("eqat", "EqatStrategy parameters")}
{_section("rc", "parameters of the rc preset, a fixed table of the EQAT loop")}
"""


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rwsnsim", description=__doc__.splitlines()[0], epilog=CONFIG_SCHEMA,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run an experiment grid and write its outputs",
                         epilog=CONFIG_SCHEMA,
                         formatter_class=argparse.RawDescriptionHelpFormatter)
    run.add_argument("config", help="INI file describing the grid")
    run.add_argument("outdir", help="directory for the outputs (created if missing)")
    rep = sub.add_parser("report", help="print rankings and trends of a written grid")
    rep.add_argument("outdir", help="directory holding aggregate.csv")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            result = run_experiment(spec_from_config(args.config))
            for path in write_outputs(result, args.outdir).values():
                print(path)
            for failure in result.failures:
                print(f"failed: {failure}", file=sys.stderr)
            return 1 if result.failures else 0
        print(report(read_agg_csv(str(Path(args.outdir) / "aggregate.csv")))["text"])
        return 0
    except FileNotFoundError as e:
        parser.exit(2, f"rwsnsim: error: no such file: {e.filename or e}\n")
    except (OSError, ValueError, configparser.Error) as e:
        parser.exit(2, f"rwsnsim: error: {e}\n")


if __name__ == "__main__":
    sys.exit(main())
