//! The acceptance bar of the result store, asserted the same way the
//! replay-lane checker suites prove replays are semantics-free: count
//! transition-semantics probes ([`bdrst_core::machine::semantics_probes`])
//! around the warm pass and demand the counter does not move.
//!
//! The probe counter is process-global, so this file deliberately holds a
//! **single** test — sibling tests in the same binary would race it.

use std::sync::Arc;

use bdrst_core::machine::semantics_probes;
use bdrst_litmus::RunConfig;
use bdrst_service::service::CheckService;
use bdrst_service::store::{ResultStore, StoreConfig};

#[test]
fn warm_runs_perform_zero_transition_semantics_steps() {
    let dir = std::env::temp_dir().join(format!("bdrst-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let disk_store = |dir: &std::path::Path| {
        ResultStore::new(StoreConfig {
            disk_dir: Some(dir.to_path_buf()),
            ..StoreConfig::default()
        })
        .unwrap()
    };

    // Cold pass: populate memory + disk — outcome sets, global-DRF
    // verdicts, trace recordings (via the race and local-DRF queries).
    let service = CheckService::new(Arc::new(disk_store(&dir)), RunConfig::default());
    let cold = service.check_corpus();
    let mut cold_races = Vec::new();
    for t in bdrst_litmus::all_tests() {
        let checked = service.check_source(t.source).unwrap();
        service.global_racefree(&checked).unwrap();
        cold_races.push(service.check_races(&checked).unwrap().racy());
        service.local_drf(&checked, &[]).unwrap();
    }

    // Warm pass over the live store: zero probes.
    let before = semantics_probes();
    let warm = service.check_corpus();
    for (t, racy) in bdrst_litmus::all_tests().iter().zip(&cold_races) {
        let checked = service.check_source(t.source).unwrap();
        assert!(checked.cached, "{} missed the warm cache", t.name);
        service.global_racefree(&checked).unwrap();
        assert_eq!(service.check_races(&checked).unwrap().racy(), *racy);
        service.local_drf(&checked, &[]).unwrap();
    }
    assert_eq!(
        semantics_probes(),
        before,
        "warm in-memory run invoked the transition semantics"
    );

    // Warm pass through a *fresh* store over the same disk directory
    // (process-restart simulation): still zero probes — the trace
    // recordings ride the wire codec back in.
    let restarted = CheckService::new(Arc::new(disk_store(&dir)), RunConfig::default());
    let before = semantics_probes();
    let disk_warm = restarted.check_corpus();
    for (t, racy) in bdrst_litmus::all_tests().iter().zip(&cold_races) {
        let checked = restarted.check_source(t.source).unwrap();
        assert!(checked.cached);
        restarted.global_racefree(&checked).unwrap();
        assert_eq!(restarted.check_races(&checked).unwrap().racy(), *racy);
        restarted.local_drf(&checked, &[]).unwrap();
    }
    assert_eq!(
        semantics_probes(),
        before,
        "disk-warm run invoked the transition semantics"
    );

    // And the warm verdicts are the cold verdicts.
    for pass in [&warm, &disk_warm] {
        assert_eq!(cold.len(), pass.len());
        for ((n1, r1), (_, r2)) in cold.iter().zip(pass.iter()) {
            assert_eq!(format!("{r1:?}"), format!("{r2:?}"), "drift on {n1}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
