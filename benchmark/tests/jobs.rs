//! Job lists are a pure function of the seed: the same seed gives the same
//! list, another seed another order of the same fixed set.

use sgmap_benchmark::jobs::job_labels;
use sgmap_benchmark::workloads::WORKLOADS;

#[test]
fn job_lists_are_deterministic_per_seed_and_differ_between_seeds() {
    for workload in WORKLOADS {
        let a = job_labels(workload, 1);
        assert_eq!(a, job_labels(workload, 1), "{workload}");
        // sweep_cached repeats one fixed sweep whatever the seed.
        if workload != "sweep_cached" {
            assert_ne!(a, job_labels(workload, 2), "{workload}");
        }
    }
}

#[test]
fn every_seed_orders_the_same_job_set() {
    for workload in WORKLOADS {
        let mut a = job_labels(workload, 3);
        let mut b = job_labels(workload, 4);
        a.sort();
        b.sort();
        assert_eq!(a, b, "{workload}");
        a.dedup();
        assert_eq!(
            a.len(),
            job_labels(workload, 3).len(),
            "{workload}: duplicate jobs"
        );
    }
}

#[test]
fn workloads_have_their_documented_sizes() {
    let sizes: Vec<(&str, usize)> = WORKLOADS
        .iter()
        .map(|w| (*w, job_labels(w, 0).len()))
        .collect();
    assert_eq!(
        sizes,
        vec![
            ("paper_apps", 111),
            ("hier_mapping", 80),
            ("synth_multilevel", 16),
            ("sweep_cached", 5),
        ]
    );
}
