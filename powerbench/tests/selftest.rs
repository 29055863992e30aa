//! Self-tests at small sizes: a repeated seed reproduces every exact
//! metric and output hash, and a traced run's exact metrics equal the
//! untraced run's, so tracing from outside does not perturb the
//! simulation.

use fluxpm_powerbench::{run_workload, Outcome, Size, WORKLOADS};

fn run(workload: &str, seed: u64, traced: bool) -> Outcome {
    run_workload(workload, Size::Small, seed, 0.0, traced)
        .unwrap_or_else(|e| panic!("{workload} seed {seed}: {e}"))
        .0
}

#[test]
fn repeated_seed_repeats_exact_metrics_and_outputs() {
    for &w in WORKLOADS {
        let a = run(w, 11, false);
        let b = run(w, 11, false);
        assert_eq!(a.exact, b.exact, "{w}");
        assert_eq!(a.digest, b.digest, "{w}");
        assert_eq!((a.attempted, a.failed), (b.attempted, b.failed), "{w}");
        assert!(a.attempted > 0, "{w} attempted nothing");
    }
}

#[test]
fn tracing_does_not_perturb_the_simulation() {
    for &w in WORKLOADS {
        let plain = run(w, 5, false);
        let traced = run(w, 5, true);
        assert_eq!(plain.exact, traced.exact, "{w}");
        assert_eq!(plain.digest, traced.digest, "{w}");
        assert!(!traced.layers.is_empty(), "{w} reported no layers");
        assert!(plain.layers.is_empty(), "{w} untraced run reported layers");
    }
}

#[test]
fn different_seeds_give_different_outputs() {
    for &w in WORKLOADS {
        assert_ne!(run(w, 1, false).digest, run(w, 2, false).digest, "{w}");
    }
}

#[test]
fn every_workload_reports_the_end_to_end_metrics() {
    for &w in WORKLOADS {
        let out = run(w, 3, false);
        for (name, unit) in fluxpm_powerbench::report::END_TO_END {
            let m = out.get(name).unwrap_or_else(|| panic!("{w}: no {name}"));
            assert_eq!(m.unit, *unit);
            assert!(
                m.value > 0.0 && m.value.is_finite(),
                "{w}: {name} = {}",
                m.value
            );
        }
    }
}

#[test]
fn unknown_workload_is_an_error() {
    assert!(run_workload("nope", Size::Small, 1, 0.0, false).is_err());
}
