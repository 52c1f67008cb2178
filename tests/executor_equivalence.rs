//! Executor equivalence: `Campaign::execute` is the one way to turn a
//! plan into measurements, and none of its settings may change them.
//! Serial, sharded-across-threads, store-backed (cold and warm) and
//! journaled (fresh and resumed) runs must all equal the serial
//! no-store run exactly. Kept in its own test binary because its
//! trace stores spill through the codec, whose process-wide counters
//! `streaming_equivalence` reads.

use swan::prelude::*;

const SEED: u64 = 7;

/// The one executor's settings are invisible in the results: every
/// combination of threads {1, 2, 7} × trace store {none, cold, warm} ×
/// checkpoint journal {none, fresh, resumed} measures a small plan
/// exactly like the serial no-store run — full `Measurement`
/// equality, floats bitwise — and a resumed journal simulates nothing.
#[test]
fn every_campaign_setting_matches_the_serial_run() {
    let kernels = swan::suite();
    let only = ScenarioFilter::parse("lib=ZL").expect("filter");
    let scenarios = filter_plan(&plan(&kernels, Scale::test(), SEED), &[only]);
    let reference = Campaign::default()
        .execute(&kernels, &scenarios, |_| {})
        .complete();

    let base = std::env::temp_dir().join(format!("swan-executor-matrix-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let warm = swan_core::TraceStore::open(base.join("warm"), &kernels).expect("open store");
    let fill = Campaign {
        store: Some(&warm),
        ..Campaign::default()
    };
    assert_eq!(
        fill.execute(&kernels, &scenarios, |_| {}).complete(),
        reference
    );

    for threads in [1, 2, 7] {
        for store_state in ["none", "cold", "warm"] {
            let journal_dir = base.join(format!("journal-{threads}-{store_state}"));
            for journal_state in ["none", "fresh", "resumed"] {
                let what = format!("threads={threads} store={store_state} journal={journal_state}");
                let cold = (store_state == "cold").then(|| {
                    let dir = base.join(format!("cold-{threads}-{journal_state}"));
                    swan_core::TraceStore::open(dir, &kernels).expect("open store")
                });
                let journal = (journal_state != "none").then(|| {
                    swan_core::CampaignJournal::open(&journal_dir, &kernels, Scale::test(), SEED)
                        .expect("open journal")
                });
                let campaign = Campaign {
                    threads,
                    store: match store_state {
                        "none" => None,
                        "cold" => cold.as_ref(),
                        _ => Some(&warm),
                    },
                    journal: journal.as_ref(),
                    shard: None,
                };
                let run = campaign.execute(&kernels, &scenarios, |_| {});
                let resumed = if journal_state == "resumed" {
                    run.total_groups
                } else {
                    0
                };
                assert_eq!(
                    (run.resumed_groups, run.executed_groups, run.skipped_groups),
                    (resumed, run.total_groups - resumed, 0),
                    "{what}: group accounting"
                );
                for ((sc, got), want) in scenarios.iter().zip(run.complete()).zip(&reference) {
                    assert_eq!(&got, want, "{}: {what}", sc.id());
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&base);
}
