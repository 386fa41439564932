"""Command line: run an experiment grid from a config file, or report on one.

    rwsnsim run CONFIG OUTDIR   run the grid CONFIG describes and write
                                raw.csv, aggregate.csv and manifest.json
                                (and traces.csv when tracing) to OUTDIR
    rwsnsim report OUTDIR       print the strategy rankings per scenario and
                                the trends over slot length of OUTDIR's
                                aggregate.csv

`run` exits 1 when a scenario or a run failed; the outputs of the rest are
still written and every failure is listed on standard error.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from pathlib import Path

from .experiments import read_agg_csv, report, run_experiment, spec_from_config, write_outputs

CONFIG_SCHEMA = """\
config file (INI; every section and key is optional, any other is an error;
the keys are the declared fields and parameters below, each value converted
by its declared type):
  [experiment]  n_nodes, t_hat, seeds   comma lists or dash ranges ("0-4, 7")
                designs                 comma list: sigmoid | exp:RATE |
                                        exp:RQ:RE | gamma:SHAPE:SCALE
                strategies              comma list of ehmdp, fq, rs, eqat, dfq, rc
                slots, budget, workers  integers (budget: joint states for an
                                        exact ehmdp solve)
                minislot_len            seconds; slot length is t_hat * this
                trace                   boolean: also write traces.csv
  [network]     NetworkParams fields: packet_bits, ber_target, kappa1, kappa2,
                bs_power, transfer_efficiency, bandwidth, arrival_period,
                arrival_prob, battery_levels, battery_quantum, queue_cap,
                max_modulation, discount, vi_tol, initial_battery;
                channel_gain as a comma list, one gain per node
                (n_nodes and slot_len come from [experiment])
  [channel]     draw_channel_gains parameters, for the path-loss draw of the
                gains when channel_gain is not given: seed, reference_gain,
                reference_dist, min_dist, max_dist, pathloss_exp
  [eqat]        EqatStrategy parameters: alpha, threshold, backoff_window
  [rc]          RandomContentionStrategy parameters: contention_prob
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
