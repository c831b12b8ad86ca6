"""Figure 5a: catchment prediction accuracy per configuration.

Deploy 38 random configurations (1-14 sites) and score the predicted
catchments against measured ones.  Paper: accuracy stays above ~93%
per configuration, 94.7% on average.
"""

from benchmarks.conftest import record
from repro.util.stats import mean


def test_fig5a_catchment_accuracy(benchmark, validation_sweep, bench_model, bench_targets):
    reports = validation_sweep

    # Benchmark the offline prediction step for one configuration.
    config = reports[0].config
    benchmark.pedantic(
        lambda: bench_model.predictor.predict(config, bench_targets).sites(),
        rounds=3,
        iterations=1,
    )

    record(
        "Figure 5a (catchment accuracy)",
        f"{'config#':<8} {'#sites':<7} {'accuracy':>9} {'coverage':>9}",
    )
    for i, report in enumerate(reports):
        record(
            "Figure 5a (catchment accuracy)",
            f"{i:<8} {len(report.config.site_order):<7} "
            f"{100 * report.accuracy:>8.1f}% {100 * report.coverage:>8.1f}%",
        )
    accuracies = [r.accuracy for r in reports]
    record(
        "Figure 5a (catchment accuracy)",
        f"mean accuracy {100 * mean(accuracies):.1f}% over "
        f"{len(reports)} configurations (paper: 94.7%)",
    )

    assert mean(accuracies) > 0.90
    assert min(accuracies) > 0.80
