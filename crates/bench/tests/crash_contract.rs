//! The durable store's ordering contract, held against real process
//! kills: *a generation file in place implies the log up to its safepoint
//! frame is on disk.*
//!
//! `recover_tool crash` persists a run and exits mid-way without closing
//! anything, cutting the store's I/O thread off wherever it was. Whatever
//! generation files that leaves in place, none may describe a state the
//! log read back from the same directory does not reach — recovery restores
//! a generation only where the log holds its safepoint frame, and the
//! newest one in place must always qualify.

use pgc_sim::durable::{read_generation, read_log, scan_snapshots, ScratchDir};
use pgc_sim::{recover, verify};
use std::process::Command;

#[test]
fn no_generation_file_outruns_the_log_at_any_kill_point() {
    let mut generations_checked = 0;
    for budget in [2_000, 4_000, 6_000, 8_000, 10_000] {
        let dir = ScratchDir::new("crash-contract");
        let data = dir.join("data");
        let output = Command::new(env!("CARGO_BIN_EXE_recover_tool"))
            .arg("crash")
            .arg(&data)
            .args([&budget.to_string(), "most-garbage", "2"])
            .output()
            .expect("run recover_tool");
        assert!(output.status.success(), "crash at {budget}: {output:?}");

        let logged = read_log(&data).expect("read the log").trace.events();
        assert!(logged <= budget, "{logged} events logged of {budget}");
        for file in scan_snapshots(&data).expect("scan") {
            let image = read_generation(&file.path).expect("a renamed file is whole");
            assert!(
                image.events_applied <= logged,
                "crash at {budget}: generation {} was taken at event {}, the log ends at {logged}",
                image.generation,
                image.events_applied
            );
            generations_checked += 1;
        }
        let recovered = recover(&data).expect("recover");
        assert_eq!(recovered.events_replayed, logged);
        assert_eq!(recovered.snapshot_files_skipped, 0);
        // Restored from the newest generation in place, or replayed from
        // event 0, and every generation in place round-tripped: one digest.
        let verified = verify(&data).expect("verify agrees");
        assert_eq!(verified.snapshot_files_skipped, 0);
    }
    assert!(
        generations_checked > 0,
        "no kill left a generation in place"
    );
}
